package sqlparse

import (
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzParse feeds arbitrary text to Parse and ParseAll. Neither may panic,
// and they must agree on a single statement: whatever Parse accepts,
// ParseAll accepts as exactly that one statement, and one statement that
// ParseAll accepts from text with no ';' in it, Parse accepts too. The seeds
// are TestParserNeverPanics' fragments and every SQL statement text in the
// module's tests.
//
//	go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 20s ./internal/sqlparse
func FuzzParse(f *testing.F) {
	f.Add(strings.Join(parserFragments, " "))
	for _, frag := range parserFragments {
		f.Add(frag)
	}
	for _, src := range testStatements(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		one, err := Parse(src)
		all, errAll := ParseAll(src)
		if err == nil && (errAll != nil || len(all) != 1 || !reflect.DeepEqual(one, all[0])) {
			t.Fatalf("Parse(%q) = %#v, but ParseAll gives %#v, %v", src, one, all, errAll)
		}
		if errAll == nil && len(all) == 1 && !strings.Contains(src, ";") && err != nil {
			t.Fatalf("ParseAll(%q) gives one statement, but Parse fails: %v", src, err)
		}
	})
}

// testStatements returns the distinct string literals in the module's test
// files that start with a SQL statement keyword.
func testStatements(tb testing.TB) []string {
	tb.Helper()
	keywords := []string{"SELECT", "INSERT", "UPDATE", "DELETE", "CREATE", "DROP", "BEGIN", "COMMIT", "ROLLBACK"}
	seen := map[string]bool{}
	var out []string
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
		var s scanner.Scanner
		s.Init(fset.AddFile(path, -1, len(src)), src, nil, 0)
		for {
			_, tok, lit := s.Scan()
			if tok == token.EOF {
				return nil
			}
			if tok != token.STRING {
				continue
			}
			text, err := strconv.Unquote(lit)
			if err != nil || seen[text] {
				continue
			}
			head := strings.ToUpper(strings.TrimSpace(text))
			for _, kw := range keywords {
				if strings.HasPrefix(head, kw) {
					seen[text] = true
					out = append(out, text)
					break
				}
			}
		}
	})
	if err != nil {
		tb.Fatal(err)
	}
	if len(out) == 0 {
		tb.Fatal("no SQL statements found in the module's tests")
	}
	return out
}
