package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// spec is the part of BENCHMARK.json compare needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// values collects a metric's values for one workload from a results file.
func (f *resultsFile) values(workload, name string) []float64 {
	var vs []float64
	for _, r := range f.Runs {
		if m, ok := r.Result.Metrics[name]; ok && r.Workload == workload {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// verdict judges side b against base a for one metric: "regressed" when
// b's median is worse by more than the bound, "improved" when better by
// more than it, "within" otherwise — and "unresolved" when either side's
// quartile spread exceeds the bound, unless every run of b beats every run
// of a.
func verdict(a, b []float64, lowerIsBetter bool, bound float64) (change, spread float64, v string) {
	aq1, am, aq3 := quartiles(a)
	bq1, bm, bq3 := quartiles(b)
	worse := func(x, y float64) float64 { // how much worse y is than x, as a share of x
		if lowerIsBetter {
			return (y - x) / x
		}
		return (x - y) / x
	}
	change = worse(am, bm)
	spread = max((aq3-aq1)/am, (bq3-bq1)/bm)
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if worse(x, y) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case spread > bound && allBetter:
		v = "improved"
	case spread > bound:
		v = "unresolved"
	case change > bound:
		v = "regressed"
	case change < -bound:
		v = "improved"
	default:
		v = "within"
	}
	return change, spread, v
}

// compareMain compares each results file after the first against the
// first, per workload and end-to-end metric. It exits 1 when any pair
// regressed.
func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 2 {
		fmt.Fprintln(os.Stderr, "usage: hhbench compare [-spec BENCHMARK.json] BASE.json OTHER.json ...")
		return 2
	}
	var sp spec
	if err := loadJSON(*specPath, &sp); err != nil {
		fmt.Fprintln(os.Stderr, "hhbench compare:", err)
		return 2
	}
	files := make([]resultsFile, fs.NArg())
	for i, path := range fs.Args() {
		if err := loadJSON(path, &files[i]); err != nil {
			fmt.Fprintln(os.Stderr, "hhbench compare:", err)
			return 2
		}
	}
	status := 0
	for i := 1; i < len(files); i++ {
		fmt.Fprintf(out, "%s (A) vs %s (B)\n", fs.Arg(0), fs.Arg(i))
		fmt.Fprintf(out, "%-13s %-18s %5s %12s %12s %12s %12s %12s %12s %8s %8s %6s  %s\n",
			"workload", "metric", "unit", "A q1", "A median", "A q3", "B q1", "B median", "B q3",
			"worse%", "spread%", "bound%", "verdict")
		for _, w := range workloads {
			for _, m := range sp.EndToEnd {
				a, b := files[0].values(w.name, m.Name), files[i].values(w.name, m.Name)
				if len(a) == 0 || len(b) == 0 {
					continue
				}
				change, spread, v := verdict(a, b, m.Better == "lower", m.Bound)
				if v == "regressed" {
					status = 1
				}
				aq1, am, aq3 := quartiles(a)
				bq1, bm, bq3 := quartiles(b)
				fmt.Fprintf(out, "%-13s %-18s %5s %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g %8.2f %8.2f %6.1f  %s\n",
					w.name, m.Name, m.Unit, aq1, am, aq3, bq1, bm, bq3, 100*change, 100*spread, 100*m.Bound, v)
			}
		}
	}
	return status
}
