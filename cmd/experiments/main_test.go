package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func tinyOpts() experiments.Options {
	return experiments.Options{Scale: 0.02, Runs: 1, Intervals: 3, Seed: 1}
}

func TestRunOneCheapExperiments(t *testing.T) {
	for _, name := range []string{"table1", "table2", "table3", "figure6", "adapt", "sketches"} {
		if err := runOne(io.Discard, name, tinyOpts()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestRunOneUnknown(t *testing.T) {
	if err := runOne(io.Discard, "bogus", tinyOpts()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// tablePins holds the SHA-256 of each experiment's output at
// Options{Scale: 0.01, Runs: 1, Seed: 1}, with the "[… done in …]" timing
// line removed. A change that moves a pin changes a reproduced table; re-pin
// only when that change is intended, and say which tables moved and why.
var tablePins = map[string]string{
	"table1":    "aff0d31a18fb642b9df1a00bf963671302a89c221105002fb53c976855ee8712",
	"table2":    "3736fac66b042fce216a287d67413fac803389af8caab62767bf97447d01d657",
	"table3":    "651ddd981c39f75164499c20b89ab27f06004df704175c41a5e0c9f5c57972c3",
	"figure6":   "2263db6789d38b7b209026e3a098831fc27a237c2d6353176b5230aed8934f79",
	"table4":    "4b34362df2276fe754b5575a6cd1954157d2168ddeaec62f02425eceeeccf43d",
	"figure7":   "e50b36fecc7454f979d03f4ab38cd4733d7cf6343f62fb2697ec741932e3f34c",
	"table5":    "7ef3d0e1ff0fd2befbd6fa2fe98f618d18dbaded46ae0f0cede973f62d184b01",
	"table6":    "62ae04063ddf6fc4cf02370350f980e127a3b6daa6840bc1f6f24b026657b349",
	"table7":    "07f0fdd8abc64c8902a95b0984acfc5a7ad7ea7a6d15436a559ace86913fe340",
	"adapt":     "8a2a72fd170134207e5ef04523b515ed2e01afb87adcbf556fc588771a00326d",
	"gaps":      "911b37ac728e4ec4aae42d78b0d01dc38899e2dc25801fe3377e15ce5e2e16f3",
	"ablations": "770a86276a7bec20e8eb60339cfc3d05236499f9b0d86dc6cfb4c6d0023ff752",
	"sketches":  "47dcc18a4a21d54e48fb1b17a03ad780127171094a24cdaf263f9a227f078589",
}

// TestTablePins runs every experiment at a tiny scale and checks its output
// against tablePins, so refactors that should not touch results cannot
// silently shift a reproduced table.
func TestTablePins(t *testing.T) {
	o := experiments.Options{Scale: 0.01, Runs: 1, Seed: 1}
	for _, name := range allExperiments {
		var buf bytes.Buffer
		if err := runOne(&buf, name, o); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var kept []string
		for _, l := range strings.Split(buf.String(), "\n") {
			if !(strings.HasPrefix(l, "[") && strings.Contains(l, " done in ")) {
				kept = append(kept, l)
			}
		}
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(kept, "\n"))))
		if want := tablePins[name]; got != want {
			t.Errorf("%s: output SHA-256 %s, pinned %s", name, got, want)
		}
	}
}
