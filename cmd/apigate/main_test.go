package main

import (
	"os"
	"path/filepath"
	"reflect"
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
	if len(lines) < 50 {
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
