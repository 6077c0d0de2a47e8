package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	var b benchmarkFile
	if err := loadJSON("../../BENCHMARK.json", &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSON holds BENCHMARK.json within its limits and in step
// with the workloads and metrics this command defines.
func TestBenchmarkJSON(t *testing.T) {
	b := loadBenchmark(t)
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1-60", b.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command defines %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the command %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var e2e, layer []metricDef
	setup := false
	for _, m := range b.EndToEnd {
		name(m.Name)
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v or direction %q out of range", m.Name, m.Bound, m.Better)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("setup_s (s, lower) is missing")
	}
	for _, m := range b.PerLayer {
		name(m.Name)
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	for _, m := range append(e2e, layer...) {
		if !unitRE.MatchString(m.unit) {
			t.Errorf("%s: malformed unit %q", m.name, m.unit)
		}
	}
	if fmt.Sprint(e2e) != fmt.Sprint(e2eMetrics) {
		t.Errorf("end-to-end metrics differ:\nBENCHMARK.json %v\ncommand        %v", e2e, e2eMetrics)
	}
	if fmt.Sprint(layer) != fmt.Sprint(layerMetrics) {
		t.Errorf("per-layer metrics differ:\nBENCHMARK.json %v\ncommand        %v", layer, layerMetrics)
	}
}

// TestShortWorkloads runs every workload at -short size, untraced and
// traced, and checks that each passes its correctness checks and emits
// exactly the metric set BENCHMARK.json declares.
func TestShortWorkloads(t *testing.T) {
	b := loadBenchmark(t)
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range workloads {
		for trace, want := range map[int]int{0: len(b.EndToEnd), 1: len(b.PerLayer)} {
			t.Run(fmt.Sprintf("%s/trace%d", w.name, trace), func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"-workload", w.name, "-short", "-seconds", "0.2",
					"-trace", fmt.Sprint(trace), "-out", t.TempDir()}
				code := benchMain(args, &out)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("exit %d, last line is not a result: %v\n%s", code, err, out.String())
				}
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, correct %v, %d of %d checks failed\n%s", code, res.Correct, res.Failed, res.Attempted, out.String())
				}
				if len(res.Metrics) != want {
					t.Errorf("%d metrics, want %d", len(res.Metrics), want)
				}
				units := map[string]string{}
				if trace == 0 {
					for _, m := range b.EndToEnd {
						units[m.Name] = m.Unit
					}
				} else {
					for _, m := range b.PerLayer {
						units[m.Name] = m.Unit
					}
				}
				for n, m := range res.Metrics {
					if !nameRE.MatchString(n) || units[n] != m.Unit || math.IsNaN(m.Value) {
						t.Errorf("metric %s = %v %q, want unit %q", n, m.Value, m.Unit, units[n])
					}
					if trace == 0 && m.Value == 0 {
						t.Errorf("end-to-end metric %s reads 0", n)
					}
				}
			})
		}
	}
}

// TestQuartiles matches Python's statistics.quantiles(data, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, m, q3 := quartiles(c.in)
		if [3]float64{q1, m, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, m, q3, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		b     []float64
		lower bool
		want  string
	}{
		{[]float64{100, 100, 101, 99, 100}, true, "within"},
		{[]float64{120, 121, 119, 120, 120}, true, "regressed"},
		{[]float64{120, 121, 119, 120, 120}, false, "improved"},
		{[]float64{60, 140, 100, 80, 120}, true, "unresolved"},
	} {
		if _, _, v := verdict(base, c.b, c.lower, 0.1); v != c.want {
			t.Errorf("verdict(%v, lower=%v) = %s, want %s", c.b, c.lower, v, c.want)
		}
	}
}
