package experiments

import (
	"strings"
	"testing"
)

// tinyOpts keeps unit-test runtime low; the shape assertions below are the
// ones that must survive even at this scale.
func tinyOpts() Options {
	return Options{Scale: 0.02, Runs: 2, Intervals: 6, Seed: 1}
}

func TestTable1Defaults(t *testing.T) {
	res := Table1(0, 0, 0, 0, 0)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// The paper's Table 1 ordering: sampling is the least accurate, sample
	// and hold the most accurate per memory.
	sh, msf, smp := res.Rows[0], res.Rows[1], res.Rows[2]
	if !(sh.RelativeError < smp.RelativeError) {
		t.Errorf("S&H %g should beat sampling %g", sh.RelativeError, smp.RelativeError)
	}
	if msf.MemoryAccesses <= sh.MemoryAccesses {
		t.Error("MSF should cost more accesses than S&H")
	}
	if !strings.Contains(res.Format(), "sample-and-hold") {
		t.Error("Format missing algorithm names")
	}
}

func TestTable2MeasuresLongLived(t *testing.T) {
	res, err := Table2(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	// The synthetic traces make large flows long-lived (the paper's
	// observation); well over half should persist interval to interval.
	if res.LongLivedPct < 50 {
		t.Errorf("long-lived share = %.1f%%, want > 50%%", res.LongLivedPct)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[2].ExactPct != 0 {
		t.Error("NetFlow must have no exact measurements")
	}
	if !strings.Contains(res.Format(), "sampled-netflow") {
		t.Error("Format missing NetFlow row")
	}
}

func TestTable3AllTraces(t *testing.T) {
	res, err := Table3(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 4 {
		t.Fatalf("traces = %d", len(res.Stats))
	}
	// Ordering and relative magnitudes of Table 3: MAG has the most
	// flows, COS the fewest.
	names := []string{"MAG+", "MAG", "IND", "COS"}
	for i, st := range res.Stats {
		if !strings.HasPrefix(st.Name, names[i]) {
			t.Errorf("trace %d = %q", i, st.Name)
		}
	}
	mag := res.Stats[1].Flows["5-tuple"].Avg
	cos := res.Stats[3].Flows["5-tuple"].Avg
	if mag <= cos {
		t.Errorf("MAG (%f) should have more flows than COS (%f)", mag, cos)
	}
	out := res.Format()
	if !strings.Contains(out, "Mbytes/interval") {
		t.Error("Format missing volumes")
	}
}

func TestFigure6HeavyTail(t *testing.T) {
	res, err := Figure6(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 5 {
		t.Fatalf("series = %d", len(res.Series))
	}
	// Figure 6's claim: the top 10% of flows carry 85.1-93.5% of traffic.
	// Accept a wider band at test scale, but every series must be heavy
	// tailed and monotone.
	for _, s := range res.Series {
		top10 := s.TopShare(10)
		if top10 < 70 || top10 > 99 {
			t.Errorf("%s: top 10%% = %.1f%%, want heavy tail (paper: 85-94%%)", s.Label, top10)
		}
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].TrafficPercent < s.Points[i-1].TrafficPercent {
				t.Errorf("%s: CDF not monotone", s.Label)
			}
		}
	}
}

func TestTable4ShapesHold(t *testing.T) {
	res, err := Table4(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Configs) != 5 || len(res.Rows) != 5 {
		t.Fatalf("configs=%d rows=%d", len(res.Configs), len(res.Rows))
	}
	general, zipf := res.Rows[0], res.Rows[1]
	measured, preserve, early := res.Rows[2], res.Rows[3], res.Rows[4]
	for i := range res.Configs {
		// Bound ordering: measured memory < Zipf bound <= general bound.
		if !(float64(measured.Cells[i].MaxMemory) < float64(general.Cells[i].MaxMemory)) {
			t.Errorf("%s: measured memory %d not below general bound %d",
				res.Configs[i], measured.Cells[i].MaxMemory, general.Cells[i].MaxMemory)
		}
		if zipf.Cells[i].MaxMemory > general.Cells[i].MaxMemory {
			t.Errorf("%s: Zipf bound above general bound", res.Configs[i])
		}
		// Preserving entries cuts the error dramatically (paper: 70-95%)
		// at some memory cost.
		if preserve.Cells[i].AvgErrorPct >= measured.Cells[i].AvgErrorPct {
			t.Errorf("%s: preserve error %.2f%% not below basic %.2f%%",
				res.Configs[i], preserve.Cells[i].AvgErrorPct, measured.Cells[i].AvgErrorPct)
		}
		if preserve.Cells[i].MaxMemory < measured.Cells[i].MaxMemory {
			t.Errorf("%s: preserve used less memory than basic", res.Configs[i])
		}
		// Early removal reduces memory versus plain preserving. It also
		// raises the oversampling from 4 to 4.7 (to compensate the extra
		// false negatives), so on small traces with few prunable entries
		// the memory can tick up slightly; allow that slack.
		if float64(early.Cells[i].MaxMemory) > 1.15*float64(preserve.Cells[i].MaxMemory) {
			t.Errorf("%s: early removal memory %d far above preserve %d",
				res.Configs[i], early.Cells[i].MaxMemory, preserve.Cells[i].MaxMemory)
		}
	}
	// On the big MAG 5-tuple configuration early removal must save memory.
	if early.Cells[0].MaxMemory > preserve.Cells[0].MaxMemory {
		t.Errorf("MAG 5-tuple: early removal memory %d above preserve %d",
			early.Cells[0].MaxMemory, preserve.Cells[0].MaxMemory)
	}
	if !strings.Contains(res.Format(), "General bound") {
		t.Error("Format missing bound rows")
	}
}

func TestFigure7ShapesHold(t *testing.T) {
	o := tinyOpts()
	o.Runs = 1
	res, err := Figure7(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Depths) != 4 {
		t.Fatalf("depths = %v", res.Depths)
	}
	for _, name := range Figure7SeriesOrder {
		vals := res.Series[name]
		if len(vals) != 4 {
			t.Fatalf("series %q has %d points", name, len(vals))
		}
		// Every line falls (or stays) with depth.
		for i := 1; i < len(vals); i++ {
			if vals[i] > vals[i-1]+1e-9 {
				t.Errorf("%s rose from depth %d to %d: %.4f -> %.4f",
					name, i, i+1, vals[i-1], vals[i])
			}
		}
	}
	// Measured filters beat the general bound (the paper: >=10x better);
	// conservative update beats the plain parallel filter at depth 4.
	for i := range res.Depths {
		if res.Series["parallel"][i] > res.Series["general bound"][i] {
			t.Errorf("depth %d: parallel measured above the bound", i+1)
		}
	}
	d := len(res.Depths) - 1
	if res.Series["conservative update"][d] > res.Series["parallel"][d] {
		t.Errorf("conservative update (%.4f%%) not better than parallel (%.4f%%) at depth 4",
			res.Series["conservative update"][d], res.Series["parallel"][d])
	}
	if !strings.Contains(res.Format(), "Zipf bound") {
		t.Error("Format missing series")
	}
}

func TestCompareDevicesShapesHold(t *testing.T) {
	o := tinyOpts()
	o.Intervals = 12
	res, err := CompareDevices("5-tuple", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Algorithms) != 3 {
		t.Fatalf("algorithms = %v", res.Algorithms)
	}
	sh := res.Results["sample-and-hold"]
	msf := res.Results["multistage-filter"]
	nf := res.Results["sampled-netflow"]
	if len(sh) != 3 || len(msf) != 3 || len(nf) != 3 {
		t.Fatal("missing group results")
	}
	// Tables 5-6 shape: for very large flows (group 0) the paper's
	// algorithms identify everything and have far lower error than
	// NetFlow.
	if sh[0].UnidentifiedPct > 3 || msf[0].UnidentifiedPct > 1 {
		t.Errorf("very large flows missed: S&H %.2f%%, MSF %.2f%%",
			sh[0].UnidentifiedPct, msf[0].UnidentifiedPct)
	}
	if sh[0].AvgErrorPct >= nf[0].AvgErrorPct || msf[0].AvgErrorPct >= nf[0].AvgErrorPct {
		t.Errorf("very large flows: S&H %.3f%% / MSF %.3f%% should beat NetFlow %.3f%%",
			sh[0].AvgErrorPct, msf[0].AvgErrorPct, nf[0].AvgErrorPct)
	}
	if !strings.Contains(res.Format(), "sampled-netflow") {
		t.Error("Format missing columns")
	}
}

func TestCompareDevicesUnknownDefinition(t *testing.T) {
	if _, err := CompareDevices("bogus", tinyOpts()); err == nil {
		t.Error("unknown definition accepted")
	}
}

func TestAblations(t *testing.T) {
	o := tinyOpts()
	o.Intervals = 4
	studies, err := Ablations(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(studies) != 5 {
		t.Fatalf("studies = %d", len(studies))
	}
	byName := map[string]AblationResult{}
	for _, s := range studies {
		byName[s.Name] = s
		if len(s.Rows) < 2 {
			t.Errorf("study %q has %d rows", s.Name, len(s.Rows))
		}
		if !strings.Contains(s.Format(), "variant") {
			t.Errorf("study %q Format broken", s.Name)
		}
	}
	// Conservative update must not increase false positives.
	upd := byName["multistage filter update rules (4 stages, k=3)"]
	if upd.Rows[1].Metrics["false pos %"] > upd.Rows[0].Metrics["false pos %"] {
		t.Error("conservative update increased false positives")
	}
	// Preserving entries must cut sample-and-hold error.
	sh := byName["sample and hold optimizations (O=4)"]
	if sh.Rows[1].Metrics["avg err % of T"] >= sh.Rows[0].Metrics["avg err % of T"] {
		t.Error("preserving entries did not reduce error")
	}
}

func TestAdaptStudyConverges(t *testing.T) {
	o := tinyOpts()
	o.Intervals = 15
	res, err := AdaptStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sample-and-hold", "multistage-filter"} {
		tr := res.Trajectories[name]
		if len(tr) != 15 {
			t.Fatalf("%s: %d points", name, len(tr))
		}
		// The threshold must fall from the misconfigured start.
		if tr[len(tr)-1].Threshold >= tr[0].Threshold {
			t.Errorf("%s: threshold did not adapt down (%d -> %d)",
				name, tr[0].Threshold, tr[len(tr)-1].Threshold)
		}
		// Usage converges toward the 90%% target.
		if !res.Converged(name, 35) {
			t.Errorf("%s: final usage %.1f%% not near target", name, tr[len(tr)-1].UsagePct)
		}
	}
	if res.Converged("bogus", 100) {
		t.Error("unknown trajectory claimed convergence")
	}
}

// TestAdaptStudyFormatStable: Format must not depend on map iteration
// order — the trajectories print sorted by name, every time.
func TestAdaptStudyFormatStable(t *testing.T) {
	res := AdaptStudyResult{Target: 0.9, Trajectories: map[string][]AdaptPoint{
		"sample-and-hold":   {{Interval: 0, Threshold: 100, UsagePct: 50}},
		"multistage-filter": {{Interval: 0, Threshold: 200, UsagePct: 60}},
	}}
	first := res.Format()
	for i := 0; i < 20; i++ {
		if got := res.Format(); got != first {
			t.Fatalf("format %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
	if strings.Index(first, "multistage-filter:") > strings.Index(first, "sample-and-hold:") {
		t.Errorf("trajectories not sorted by name:\n%s", first)
	}
}

func TestCompareSketches(t *testing.T) {
	o := tinyOpts()
	o.Intervals = 4
	res, err := CompareSketches(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]SketchRow{}
	for _, r := range res.Rows {
		byName[r.Algorithm] = r
	}
	// The paper's algorithms never overestimate; the sketches may.
	if byName["sample-and-hold"].Overestimates != 0 {
		t.Error("sample and hold overestimated")
	}
	if byName["multistage-filter"].Overestimates != 0 {
		t.Error("multistage filter overestimated")
	}
	// The multistage filter must identify every large flow.
	if byName["multistage-filter"].UnidentifiedPct != 0 {
		t.Errorf("multistage filter missed %.2f%% of large flows",
			byName["multistage-filter"].UnidentifiedPct)
	}
	if !strings.Contains(res.Format(), "space-saving") {
		t.Error("Format missing rows")
	}
}

func TestGapStudy(t *testing.T) {
	o := tinyOpts()
	o.Intervals = 6
	res, err := GapStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.WithinPct) != len(res.Candidates) {
		t.Fatal("missing percentages")
	}
	// Monotone in the candidate interval.
	for i := 1; i < len(res.WithinPct); i++ {
		if res.WithinPct[i] < res.WithinPct[i-1] {
			t.Fatalf("gap CDF not monotone: %v", res.WithinPct)
		}
	}
	// The paper's criterion: the overwhelming share of bytes arrives
	// within 5 seconds (one interval) of the previous same-flow packet.
	if res.WithinPct[2] < 90 {
		t.Errorf("within 5s = %.1f%%, want >= 90%% (paper: >= 99%%)", res.WithinPct[2])
	}
	if !strings.Contains(res.Format(), "5s") {
		t.Error("Format broken")
	}
}
