package sqlparse

import (
	"math/rand"
	"strings"
	"testing"
)

// parserFragments are the tokens TestParserNeverPanics strings together at
// random; FuzzParse starts from them too.
var parserFragments = []string{
	"SELECT", "FROM", "WHERE", "INSERT", "INTO", "VALUES", "UPDATE",
	"SET", "DELETE", "CREATE", "TABLE", "INDEX", "JOIN", "LEFT", "ON",
	"GROUP", "BY", "ORDER", "HAVING", "LIMIT", "OFFSET", "AND", "OR",
	"NOT", "NULL", "IS", "IN", "LIKE", "BETWEEN", "AS", "DISTINCT",
	"PRIMARY", "KEY", "COUNT", "(", ")", ",", "*", "+", "-", "/", "%",
	"=", "!=", "<", "<=", ">", ">=", ".", ";", "?", "||",
	"t", "a", "b", "users", "id", "'str'", "'it''s'", "42", "1.5",
	"TRUE", "FALSE", "INTEGER", "TEXT", "x9", "_u",
}

// TestParserNeverPanics throws random token soup at the parser: every input
// must return cleanly (parse or error), never panic. This is the fuzz-style
// robustness guarantee the db facade relies on for untrusted query text
// (e.g. from cmd/trod-query).
func TestParserNeverPanics(t *testing.T) {
	fragments := parserFragments
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(20)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteString(fragments[rng.Intn(len(fragments))])
			sb.WriteByte(' ')
		}
		src := sb.String()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", src, r)
				}
			}()
			_, _ = Parse(src)
			_, _ = ParseAll(src)
		}()
	}
}

// TestLexerNeverPanics runs arbitrary bytes through the tokenizer.
func TestLexerNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5000; trial++ {
		b := make([]byte, rng.Intn(40))
		rng.Read(b)
		src := string(b)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", src, r)
				}
			}()
			_, _ = Tokenize(src)
		}()
	}
}

// TestDeepNestingDoesNotBlowUp guards the recursive-descent depth on
// pathological inputs (very deep parenthesisation).
func TestDeepNestingDoesNotBlowUp(t *testing.T) {
	depth := 2000
	expr := strings.Repeat("(", depth) + "1" + strings.Repeat(")", depth)
	if _, err := Parse("SELECT " + expr); err != nil {
		t.Fatalf("deep nesting should parse: %v", err)
	}
	// Unbalanced version errors cleanly.
	if _, err := Parse("SELECT " + strings.Repeat("(", depth) + "1"); err == nil {
		t.Fatal("unbalanced parens should fail")
	}
}

// TestCommentEdgeCases pins comment lexing behaviour.
func TestCommentEdgeCases(t *testing.T) {
	cases := []string{
		"SELECT 1 -- trailing",
		"-- leading\nSELECT 1",
		"SELECT /* inline */ 1",
		"SELECT 1 /* unterminated",
		"/**/SELECT 1",
	}
	for _, src := range cases {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}
