package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Config controls which analyzers run and which program entities they
// watch. It is normally loaded from a trodlint.yaml at the module root so
// future subsystems (MVCC, buffer pool) can register their mutexes and
// limits without touching analyzer code. All entity lists use the
// qualified-name forms documented in names.go.
type Config struct {
	// Analyzers enables a subset by name; empty means all.
	Analyzers []string

	Lockhold struct {
		// Mutexes are the struct fields whose critical sections must not
		// block, e.g. repro/internal/storage.Store.mu.
		Mutexes []string
		// Blocking are the functions/methods that must not be called
		// while one of Mutexes is held.
		Blocking []string
	}

	Wirecode struct {
		// Packages whose wire-facing errors must carry typed codes.
		Packages []string
		// Protocol is the package defining Message/ServerError/ErrCode.
		Protocol string
	}

	Boundalloc struct {
		// Sources are functions whose uint64 results are wire-tainted.
		Sources []string
		// Clamps are functions that sanitize a tainted length.
		Clamps []string
		// Limits are the canonical named caps, cited in diagnostics.
		Limits []string
	}

	Detpath struct {
		// Packages forming the deterministic set.
		Packages []string
		// Forbidden calls within that set (supports pkg.* wildcards).
		Forbidden []string
	}

	Durerr struct {
		// Packages whose durability-relevant error returns must be
		// handled or explicitly discarded with `_ =`.
		Packages []string
		// Calls whose error results those rules apply to.
		Calls []string
	}

	Nosleep struct {
		// Handlers are the request-path functions audited for blocking
		// time primitives (direct calls; `go` subtrees exempt).
		Handlers []string
		// Forbidden are the blocking calls those handlers must not make.
		Forbidden []string
	}
}

func (c *Config) enabled(name string) bool {
	if len(c.Analyzers) == 0 {
		return true
	}
	for _, n := range c.Analyzers {
		if n == name {
			return true
		}
	}
	return false
}

// DefaultConfig mirrors the checked-in trodlint.yaml; it is the fallback
// when no config file is found (e.g. vetting a package outside the
// module).
func DefaultConfig() *Config {
	c := &Config{}
	c.Lockhold.Mutexes = []string{
		"repro/internal/storage.Store.mu",
		"repro/internal/wal.Log.mu",
	}
	c.Lockhold.Blocking = []string{
		"repro/internal/wal.Log.WaitDurable",
		"repro/internal/wal.Log.Sync",
		"repro/internal/wal.File.Sync",
		"os.File.Sync",
		"net.Conn.Read",
		"net.Conn.Write",
		"time.Sleep",
	}
	c.Wirecode.Packages = []string{
		"repro/internal/protocol",
		"repro/internal/server",
		"repro/internal/repl",
		"repro/internal/client",
	}
	c.Wirecode.Protocol = "repro/internal/protocol"
	c.Boundalloc.Sources = []string{
		"encoding/binary.Uvarint",
		"repro/internal/wal.readUvarint",
		"repro/internal/protocol.readUvarint",
		"repro/internal/storage.snapUvarint",
	}
	c.Boundalloc.Clamps = []string{
		"repro/internal/protocol.preallocCap",
	}
	c.Boundalloc.Limits = []string{
		"repro/internal/protocol.MaxFrame",
		"repro/internal/protocol.MaxReplFrame",
		"repro/internal/protocol.maxResultColumns",
		"repro/internal/value.maxRowColumns",
	}
	c.Detpath.Packages = []string{
		"repro/internal/storage",
		"repro/internal/wal",
		"repro/internal/crashtest",
	}
	c.Detpath.Forbidden = []string{
		"time.Now",
		"time.Since",
		"math/rand.*",
		"math/rand/v2.*",
	}
	c.Durerr.Packages = []string{
		"repro/internal/wal",
		"repro/internal/storage",
	}
	c.Durerr.Calls = []string{
		"os.File.Sync",
		"os.File.Close",
		"repro/internal/wal.File.Sync",
		"repro/internal/wal.File.Close",
	}
	c.Nosleep.Handlers = []string{
		"repro/internal/server.session.serve",
		"repro/internal/server.session.handle",
		"repro/internal/server.session.execSQL",
		"repro/internal/server.session.begin",
		"repro/internal/server.session.commit",
		"repro/internal/server.session.rollbackTx",
		"repro/internal/server.session.promote",
		"repro/internal/server.session.slowCheck",
		"repro/internal/server.Server.observeRequest",
		"repro/internal/server.slowLog.emit",
		"repro/internal/metrics.Histogram.Observe",
		"repro/internal/metrics.Histogram.ObserveSince",
		"repro/internal/trace.Tracer.push",
	}
	c.Nosleep.Forbidden = []string{
		"time.Sleep",
		"time.Tick",
	}
	return c
}

// LoadConfig reads a trodlint.yaml. Sections that are absent keep their
// DefaultConfig values; sections that are present replace them wholesale.
func LoadConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseConfig(string(data))
}

// ParseConfig parses the trodlint.yaml subset: two levels of maps,
// scalar values, and "- item" string lists. (Hand-rolled because the
// standard library has no YAML decoder and this repo builds offline.)
func ParseConfig(src string) (*Config, error) {
	root, err := parseYAML(src)
	if err != nil {
		return nil, err
	}
	c := DefaultConfig()
	for key, node := range root {
		switch key {
		case "analyzers":
			c.Analyzers = node.list
		case "lockhold":
			if err := node.decode(key, map[string]*[]string{
				"mutexes":  &c.Lockhold.Mutexes,
				"blocking": &c.Lockhold.Blocking,
			}); err != nil {
				return nil, err
			}
		case "wirecode":
			if sub, ok := node.m["protocol"]; ok && sub.scalar != "" {
				c.Wirecode.Protocol = sub.scalar
				delete(node.m, "protocol")
			}
			if err := node.decode(key, map[string]*[]string{
				"packages": &c.Wirecode.Packages,
			}); err != nil {
				return nil, err
			}
		case "boundalloc":
			if err := node.decode(key, map[string]*[]string{
				"sources": &c.Boundalloc.Sources,
				"clamps":  &c.Boundalloc.Clamps,
				"limits":  &c.Boundalloc.Limits,
			}); err != nil {
				return nil, err
			}
		case "detpath":
			if err := node.decode(key, map[string]*[]string{
				"packages":  &c.Detpath.Packages,
				"forbidden": &c.Detpath.Forbidden,
			}); err != nil {
				return nil, err
			}
		case "durerr":
			if err := node.decode(key, map[string]*[]string{
				"packages": &c.Durerr.Packages,
				"calls":    &c.Durerr.Calls,
			}); err != nil {
				return nil, err
			}
		case "nosleep":
			if err := node.decode(key, map[string]*[]string{
				"handlers":  &c.Nosleep.Handlers,
				"forbidden": &c.Nosleep.Forbidden,
			}); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("trodlint.yaml: unknown top-level key %q", key)
		}
	}
	return c, nil
}

// FindConfig walks up from dir looking for trodlint.yaml, stopping at the
// module root (go.mod) or the filesystem root. Returns "" if none found.
func FindConfig(dir string) string {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return ""
	}
	for {
		p := filepath.Join(dir, "trodlint.yaml")
		if _, err := os.Stat(p); err == nil {
			return p
		}
		atModuleRoot := false
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			atModuleRoot = true
		}
		parent := filepath.Dir(dir)
		if atModuleRoot || parent == dir {
			return ""
		}
		dir = parent
	}
}

// yamlNode is either a scalar, a list of scalars, or a map.
type yamlNode struct {
	scalar string
	list   []string
	m      map[string]*yamlNode
}

func (n *yamlNode) decode(section string, fields map[string]*[]string) error {
	if n.m == nil {
		return fmt.Errorf("trodlint.yaml: section %q must be a map", section)
	}
	for key, sub := range n.m {
		dst, ok := fields[key]
		if !ok {
			return fmt.Errorf("trodlint.yaml: unknown key %q in section %q", key, section)
		}
		if sub.list == nil {
			return fmt.Errorf("trodlint.yaml: %s.%s must be a list", section, key)
		}
		*dst = sub.list
	}
	return nil
}

type yamlLine struct {
	indent int
	text   string // trimmed content
	lineno int
}

func parseYAML(src string) (map[string]*yamlNode, error) {
	var lines []yamlLine
	for i, raw := range strings.Split(src, "\n") {
		if strings.Contains(raw, "\t") {
			return nil, fmt.Errorf("trodlint.yaml:%d: tabs are not allowed, use spaces", i+1)
		}
		trimmed := strings.TrimLeft(raw, " ")
		// Full-line and trailing comments. Entity names never contain
		// '#', so a bare cut is safe in this subset.
		if idx := strings.Index(trimmed, "#"); idx >= 0 {
			trimmed = strings.TrimRight(trimmed[:idx], " ")
		}
		trimmed = strings.TrimRight(trimmed, " \r")
		if trimmed == "" {
			continue
		}
		lines = append(lines, yamlLine{indent: len(raw) - len(strings.TrimLeft(raw, " ")), text: trimmed, lineno: i + 1})
	}
	node, rest, err := parseBlock(lines, 0)
	if err != nil {
		return nil, err
	}
	if len(rest) > 0 {
		return nil, fmt.Errorf("trodlint.yaml:%d: unexpected indentation", rest[0].lineno)
	}
	if node.m == nil {
		return nil, fmt.Errorf("trodlint.yaml: top level must be a map")
	}
	return node.m, nil
}

// parseBlock consumes lines at exactly the indentation of lines[0],
// returning the parsed node and the unconsumed tail.
func parseBlock(lines []yamlLine, depth int) (*yamlNode, []yamlLine, error) {
	if depth > 8 {
		return nil, nil, fmt.Errorf("trodlint.yaml:%d: nesting too deep", lines[0].lineno)
	}
	indent := lines[0].indent
	node := &yamlNode{}
	for len(lines) > 0 {
		ln := lines[0]
		if ln.indent < indent {
			break
		}
		if ln.indent > indent {
			return nil, nil, fmt.Errorf("trodlint.yaml:%d: unexpected indentation", ln.lineno)
		}
		switch {
		case strings.HasPrefix(ln.text, "- "):
			if node.m != nil {
				return nil, nil, fmt.Errorf("trodlint.yaml:%d: list item inside a map block", ln.lineno)
			}
			node.list = append(node.list, unquote(strings.TrimSpace(ln.text[2:])))
			lines = lines[1:]
		case strings.Contains(ln.text, ":"):
			if node.list != nil {
				return nil, nil, fmt.Errorf("trodlint.yaml:%d: map key inside a list block", ln.lineno)
			}
			key, val, _ := strings.Cut(ln.text, ":")
			key = strings.TrimSpace(key)
			val = strings.TrimSpace(val)
			if node.m == nil {
				node.m = make(map[string]*yamlNode)
			}
			if _, dup := node.m[key]; dup {
				return nil, nil, fmt.Errorf("trodlint.yaml:%d: duplicate key %q", ln.lineno, key)
			}
			lines = lines[1:]
			if val != "" {
				node.m[key] = &yamlNode{scalar: unquote(val)}
				continue
			}
			if len(lines) == 0 || lines[0].indent <= indent {
				node.m[key] = &yamlNode{} // empty section
				continue
			}
			child, rest, err := parseBlock(lines, depth+1)
			if err != nil {
				return nil, nil, err
			}
			node.m[key] = child
			lines = rest
		default:
			return nil, nil, fmt.Errorf("trodlint.yaml:%d: cannot parse %q", ln.lineno, ln.text)
		}
	}
	return node, lines, nil
}

func unquote(s string) string {
	if len(s) >= 2 && (s[0] == '"' && s[len(s)-1] == '"' || s[0] == '\'' && s[len(s)-1] == '\'') {
		return s[1 : len(s)-1]
	}
	return s
}
