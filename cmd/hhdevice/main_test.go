package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pipeline"
)

// testOptions mirrors the flag defaults on a small synthetic preset.
func testOptions(alg, def, preset string, scale float64, intervals int) options {
	return options{
		algName: alg, defName: def, threshold: 0.001,
		entries: 64, stages: 2, buckets: 128, oversamp: 4, rate: 16,
		shards: 1, top: 1, seed: 1,
		preset: preset, scale: scale, intervals: intervals,
	}
}

func TestRunAlgorithmsOnPreset(t *testing.T) {
	for _, alg := range []string{"sh", "msf", "netflow"} {
		o := testOptions(alg, "5-tuple", "COS", 0.05, 2)
		o.adaptive = true
		o.top = 3
		if err := run(o); err != nil {
			t.Errorf("%s: %v", alg, err)
		}
	}
}

func TestRunDefinitions(t *testing.T) {
	for _, def := range []string{"dstIP", "ASpair"} {
		if err := run(testOptions("msf", def, "MAG", 0.01, 1)); err != nil {
			t.Errorf("%s: %v", def, err)
		}
	}
}

func TestRunSharded(t *testing.T) {
	for _, policy := range []pipeline.OverloadPolicy{pipeline.Block, pipeline.Degrade} {
		o := testOptions("sh", "5-tuple", "COS", 0.05, 2)
		o.shards = 2
		o.overload = policy
		o.entries = 32
		if err := run(o); err != nil {
			t.Errorf("policy %v: %v", policy, err)
		}
	}
}

func TestRunAB(t *testing.T) {
	o := testOptions("msf", "5-tuple", "COS", 0.05, 2)
	o.ab = "sh"
	o.top = 5
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	// Sharded A/B exercises the same graph with sharded measure stages.
	o.shards = 2
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

// TestRunABOutput pins the A/B report of
// "hhdevice -preset MAG -scale 0.01 -intervals 4 -shards 2 -alg msf -ab sh":
// both sides are deterministic given the seed, so the comparison lines are
// byte-stable across changes that keep reports identical.
func TestRunABOutput(t *testing.T) {
	o := testOptions("msf", "5-tuple", "MAG", 0.01, 4)
	o.entries, o.stages, o.buckets, o.top = 1024, 4, 1024, 10
	o.shards = 2
	o.ab = "sh"
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	runErr := run(o)
	os.Stdout = stdout
	w.Close()
	got := string(<-out)
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	const want = `A/B device: msf (a) vs sh (b), flows by 5-tuple, threshold 15552 bytes (0.1000% of capacity), 2 shard(s)
interval 0: a=20 flows, b=128 flows, 20 common, top-10 overlap 100%, avg rel diff 30.94%
interval 1: a=22 flows, b=154 flows, 22 common, top-10 overlap 100%, avg rel diff 7.16%
interval 2: a=22 flows, b=146 flows, 22 common, top-10 overlap 100%, avg rel diff 0.00%
interval 3: a=22 flows, b=159 flows, 22 common, top-10 overlap 100%, avg rel diff 4.30%
processed 25202 packets through both sides
`
	if got != want {
		t.Errorf("output:\n%s\nwant:\n%s", got, want)
	}
}

func TestRunABErrors(t *testing.T) {
	o := testOptions("msf", "5-tuple", "COS", 0.05, 1)
	o.ab = "bogus"
	if err := run(o); err == nil {
		t.Error("bad -ab algorithm accepted")
	}
	o = testOptions("msf", "5-tuple", "COS", 0.05, 1)
	o.ab = "sh"
	o.adaptive = true
	if err := run(o); err == nil {
		t.Error("-ab with -adapt accepted")
	}
	o = testOptions("msf", "5-tuple", "COS", 0.05, 1)
	o.ab = "sh"
	o.export = "127.0.0.1:2055"
	if err := run(o); err == nil {
		t.Error("-ab with -export accepted")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(testOptions("bogus", "5-tuple", "COS", 0.05, 1)); err == nil {
		t.Error("bad algorithm accepted")
	}
	if err := run(testOptions("msf", "bogus", "COS", 0.05, 1)); err == nil {
		t.Error("bad definition accepted")
	}
	if err := run(testOptions("msf", "5-tuple", "", 1, 1)); err == nil {
		t.Error("no input accepted")
	}
	o := testOptions("msf", "5-tuple", "", 1, 1)
	o.args = []string{filepath.Join(t.TempDir(), "missing")}
	if err := run(o); err == nil {
		t.Error("missing file accepted")
	}
}
