package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// writePkg lays a single-file package down in a temp dir.
func writePkg(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "pkg.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

const testSrc = `package demo

import "io"

const Answer = 42
const hidden = 1

var Default io.Writer

// Config is exported with a mixed field set.
type Config struct {
	Entries int
	names   []string
	Nested  map[string][]byte
}

type Alias = Config

type Reader interface {
	Read(p []byte) (int, error)
	io.Closer
}

type count int

func New(cfg Config, opts ...func(*Config)) (*Config, error) { return nil, nil }

func (c *Config) Validate() error { return nil }

func (c count) String() string { return "" }

func internal() {}
`

func TestExtract(t *testing.T) {
	dir := writePkg(t, testSrc)
	lines, err := extract(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"const Answer",
		"field Config.Entries int",
		"field Config.Nested map[string][]byte",
		"func New(Config, ...func(*Config)) (*Config, error)",
		"ifacemethod Reader.Read([]byte) (int, error)",
		"ifacemethod Reader.io.Closer (embedded)",
		"method (*Config) Validate() error",
		"type Alias = Config",
		"type Config struct",
		"type Reader interface",
		"var Default io.Writer",
	}
	if !reflect.DeepEqual(lines, want) {
		t.Errorf("extracted API:\n  got:  %q\n  want: %q", lines, want)
	}
}

func TestDiff(t *testing.T) {
	old := []string{"a", "b", "c"}
	cur := []string{"a", "c", "d"}
	removed, added := diff(old, cur)
	if !reflect.DeepEqual(removed, []string{"b"}) || !reflect.DeepEqual(added, []string{"d"}) {
		t.Errorf("removed=%q added=%q", removed, added)
	}
}

func TestGateRoundTrip(t *testing.T) {
	dir := writePkg(t, testSrc)
	baseline := filepath.Join(t.TempDir(), "API.txt")

	// No baseline yet: the check fails with a pointer at -update.
	if code, err := run(dir, baseline, false, os.Stdout); err == nil || code != 1 {
		t.Fatalf("missing baseline: code=%d err=%v", code, err)
	}
	// -update creates it; a clean check passes.
	if code, err := run(dir, baseline, true, os.Stdout); err != nil || code != 0 {
		t.Fatalf("update: code=%d err=%v", code, err)
	}
	if code, err := run(dir, baseline, false, os.Stdout); err != nil || code != 0 {
		t.Fatalf("clean check: code=%d err=%v", code, err)
	}

	// Additions are allowed.
	grown := strings.Replace(testSrc, "func internal() {}",
		"func internal() {}\n\nfunc Extra() {}\n", 1)
	if code, err := run(writePkg(t, grown), baseline, false, os.Stdout); err != nil || code != 0 {
		t.Fatalf("addition rejected: code=%d err=%v", code, err)
	}

	// Removals break the gate.
	shrunk := strings.Replace(testSrc, "const Answer = 42", "", 1)
	if code, err := run(writePkg(t, shrunk), baseline, false, os.Stdout); err != nil || code != 1 {
		t.Fatalf("removal passed: code=%d err=%v", code, err)
	}

	// Signature changes read as removed+added, so they break too.
	changed := strings.Replace(testSrc, "func (c *Config) Validate() error",
		"func (c *Config) Validate(strict bool) error", 1)
	if code, err := run(writePkg(t, changed), baseline, false, os.Stdout); err != nil || code != 1 {
		t.Fatalf("signature change passed: code=%d err=%v", code, err)
	}
}

// TestExtractFacade runs the extractor over the real traffic facade: it
// must parse and yield a non-trivial API including the known anchors.
func TestExtractFacade(t *testing.T) {
	lines, err := extract("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) < 40 {
		t.Fatalf("facade API has %d lines, expected a substantial surface", len(lines))
	}
	wantAnchors := []string{
		"func NewPipeline(PipelineConfig) (*Pipeline, error)",
		"func NewDevice(Algorithm, FlowDefinition, *Adaptor) *Device",
		"func Replay(Source, Consumer, ...ReplayOption) (int, error)",
	}
	have := make(map[string]bool, len(lines))
	for _, l := range lines {
		have[l] = true
	}
	for _, a := range wantAnchors {
		if !have[a] {
			t.Errorf("facade API missing anchor %q", a)
		}
	}
}

// TestFacadeEntriesHaveCallers holds the facade to what its callers use: an
// entry stays only if a non-test program under examples/, bench/ or cmd/
// names it as traffic.X, or if its name appears in the API line of an entry
// that stays (a parameter or result type, say). Fields and methods stay with
// their type. Every other entry is an orphan and fails the test.
func TestFacadeEntriesHaveCallers(t *testing.T) {
	lines, err := extract("../..")
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, dir := range []string{"examples", "bench", "cmd"} {
		if err := facadeSelectors(filepath.Join("../..", dir), used); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range facadeOrphans(lines, used) {
		t.Errorf("facade entry %q has no caller under examples/, bench/ or cmd/", l)
	}
}

// facadeSelectors adds to used every X that a non-test Go file under root
// selects as traffic.X, where traffic is the file's name for package repro.
func facadeSelectors(root string, used map[string]bool) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		local := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"repro"` {
				local = "traffic"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == local {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
}

// facadeOrphans applies the caller rule to API lines as extract renders
// them and returns the lines of the entries it does not keep.
func facadeOrphans(lines []string, used map[string]bool) []string {
	owner := make([]string, len(lines)) // the name an entry stays or goes with
	for i, l := range lines {
		owner[i] = apiLineName(l)
	}
	keep := map[string]bool{}
	for grew := true; grew; {
		grew = false
		for i, l := range lines {
			name := owner[i]
			if keep[name] || !used[name] {
				continue
			}
			keep[name] = true
			grew = true
			for _, m := range facadeIdent.FindAllStringSubmatch(l, -1) {
				used[m[1]] = true
			}
		}
	}
	var orphans []string
	for i, l := range lines {
		if !keep[owner[i]] {
			orphans = append(orphans, l)
		}
	}
	return orphans
}

// facadeIdent matches an exported identifier not qualified by a package, so
// "accounting.Params" in an alias line names nothing in the facade.
var facadeIdent = regexp.MustCompile(`(?:^|[^.\w])([A-Z]\w*)`)

// apiLineName returns the facade name an API line belongs to: the declared
// name, or for a field or method line its type's name.
func apiLineName(line string) string {
	f := strings.Fields(line)
	name := f[1]
	switch f[0] {
	case "method":
		name = strings.Trim(name, "(*)")
	case "field", "ifacemethod":
		name = name[:strings.IndexByte(name, '.')]
	}
	if i := strings.IndexAny(name, "(["); i >= 0 {
		name = name[:i]
	}
	return name
}

// TestFacadeOrphanRule pins the rule on a synthetic surface: a used entry
// keeps the facade types named in its line, fields go with their type, and
// a package-qualified name keeps nothing.
func TestFacadeOrphanRule(t *testing.T) {
	lines := []string{
		"func NewThing(Config) (*Thing, error)",
		"type Config struct",
		"field Config.Size int",
		"type Thing = inner.Thing",
		"type Params = other.Config",
		"type Unused struct",
		"field Unused.N int",
		"func Helper() Unused",
		"method (*Spare) Run() error",
	}
	got := facadeOrphans(lines, map[string]bool{"NewThing": true})
	want := []string{
		"type Params = other.Config",
		"type Unused struct",
		"field Unused.N int",
		"func Helper() Unused",
		"method (*Spare) Run() error",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("orphans = %v, want %v", got, want)
	}
}
