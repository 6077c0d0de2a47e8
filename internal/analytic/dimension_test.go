package analytic

import (
	"testing"

	"repro/internal/core/device"
	"repro/internal/core/multistage"
	"repro/internal/exact"
	"repro/internal/flow"
	"repro/internal/trace"
)

func TestDimensionRunningExample(t *testing.T) {
	// The paper's running example: 100 MB link, 1 s intervals, 1%
	// threshold, 100,000 flows, oversampling 20.
	d, err := Dimension(1e8, 0.01, 20, 100000)
	if err != nil {
		t.Fatal(err)
	}
	// Section 4.1.3: ~4,207 entries with preservation.
	if d.SampleAndHoldEntries < 4000 || d.SampleAndHoldEntries > 4400 {
		t.Errorf("S&H entries = %d, want ~4200 (paper: 4207)", d.SampleAndHoldEntries)
	}
	// Section 5.1: log10(100,000) = 5 stages at strength 10, b = 10/z.
	if d.FilterStages != 5 {
		t.Errorf("stages = %d, want 5", d.FilterStages)
	}
	if d.FilterBuckets != 1000 {
		t.Errorf("buckets = %d, want 1000", d.FilterBuckets)
	}
	// Flow memory: 2x a high-probability bound on the ~112 expected
	// passing flows (Theorem 3, d=5) — a few hundred entries.
	if d.FilterEntries < 2*112 || d.FilterEntries > 2*400 {
		t.Errorf("filter entries = %d, want a few hundred", d.FilterEntries)
	}
	if d.SRAMBits == 0 {
		t.Error("SRAM footprint not computed")
	}
}

func TestDimensionRecommendationWorks(t *testing.T) {
	// A device built to the recommendation must catch every flow above the
	// threshold on a generated trace.
	cfg, err := trace.Preset("COS")
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.Scaled(0.05).WithIntervals(2)
	const z = 0.001
	capacity := cfg.Capacity()
	dim, err := Dimension(capacity, z, 4, cfg.FlowsPerInterval)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := multistage.New(multistage.Config{
		Stages:       dim.FilterStages,
		Buckets:      dim.FilterBuckets,
		Entries:      dim.FilterEntries,
		Threshold:    uint64(z * capacity),
		Conservative: true,
		Shield:       true,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := device.New(alg, flow.FiveTuple{}, nil)
	oracle := exact.New(flow.FiveTuple{})
	src, err := trace.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	missed := 0
	tee := teeCheck{dev: dev, oracle: oracle, threshold: uint64(z * capacity), missed: &missed}
	if _, err := trace.Replay(src, tee); err != nil {
		t.Fatal(err)
	}
	if missed > 0 {
		t.Errorf("%d large flows missed by a device sized per Dimension", missed)
	}
}

type teeCheck struct {
	dev       *device.Device
	oracle    *exact.Counter
	threshold uint64
	missed    *int
}

func (t teeCheck) Packet(p *flow.Packet) {
	t.oracle.Packet(p)
	t.dev.Packet(p)
}

func (t teeCheck) EndInterval(i int) {
	truth := t.oracle.Snapshot()
	t.oracle.Reset()
	t.dev.EndInterval(i)
	rep := t.dev.Reports()[len(t.dev.Reports())-1]
	for k, size := range truth {
		if size < t.threshold {
			continue
		}
		if _, ok := rep.Estimate(k); !ok {
			*t.missed++
		}
	}
}

func TestDimensionErrors(t *testing.T) {
	cases := []struct {
		c, z, o float64
		n       int
	}{
		{0, 0.01, 4, 100},
		{1e8, 0, 4, 100},
		{1e8, 1.5, 4, 100},
		{1e8, 0.01, 0, 100},
		{1e8, 0.01, 4, 0},
	}
	for i, tc := range cases {
		if _, err := Dimension(tc.c, tc.z, tc.o, tc.n); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}
