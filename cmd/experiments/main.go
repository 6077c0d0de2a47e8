// Command experiments regenerates the paper's tables and figures on
// synthetic traces calibrated to the published trace statistics.
//
// Usage:
//
//	experiments [flags] [experiment ...]
//
// Experiments: table1 table2 table3 figure6 table4 figure7 table5 table6
// table7 ablations all (default: all).
//
// Flags -scale and -runs trade fidelity for speed; -full runs at paper
// scale (slow: the MAG+ trace alone is hundreds of millions of packets).
//
// -cpuprofile and -memprofile write pprof profiles of the run, so the
// measurement hot path can be profiled without editing code:
//
//	experiments -cpuprofile cpu.out -scale 0.2 table5
//	go tool pprof cpu.out
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		scale      = flag.Float64("scale", 0.05, "experiment scale (1 = paper scale)")
		runs       = flag.Int("runs", 3, "repetitions per configuration (paper: 16-50)")
		intervals  = flag.Int("intervals", 0, "override measurement interval count")
		seed       = flag.Int64("seed", 1, "trace seed")
		full       = flag.Bool("full", false, "paper-scale run (-scale 1 -runs 16)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to `file`")
		memprofile = flag.String("memprofile", "", "write a heap profile to `file` at exit")
	)
	flag.Parse()
	o := experiments.Options{Scale: *scale, Runs: *runs, Intervals: *intervals, Seed: *seed}
	if *full {
		o.Scale = 1
		o.Runs = 16
	}
	names := flag.Args()
	if len(names) == 0 {
		names = []string{"all"}
	}
	if err := run(names, o, *cpuprofile, *memprofile); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run executes the named experiments with optional profiling; profiles are
// finalized even when an experiment fails.
func run(names []string, o experiments.Options, cpuprofile, memprofile string) error {
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	for _, name := range names {
		if err := runOne(os.Stdout, name, o); err != nil {
			return err
		}
	}
	if memprofile != "" {
		f, err := os.Create(memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows retained memory
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

var allExperiments = []string{
	"table1", "table2", "table3", "figure6", "table4", "figure7",
	"table5", "table6", "table7", "adapt", "gaps", "ablations", "sketches",
}

func runOne(w io.Writer, name string, o experiments.Options) error {
	start := time.Now()
	switch name {
	case "all":
		for _, n := range allExperiments {
			if err := runOne(w, n, o); err != nil {
				return err
			}
		}
		return nil
	case "table1":
		fmt.Fprintln(w, experiments.Table1(0, 0, 0, 0, 0).Format())
	case "table2":
		res, err := experiments.Table2(o)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Format())
	case "table3":
		res, err := experiments.Table3(o)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Format())
	case "figure6":
		res, err := experiments.Figure6(o)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Format())
	case "table4":
		res, err := experiments.Table4(o)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Format())
	case "figure7":
		res, err := experiments.Figure7(o)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Format())
	case "table5", "table6", "table7":
		def := map[string]string{"table5": "5-tuple", "table6": "dstIP", "table7": "ASpair"}[name]
		res, err := experiments.CompareDevices(def, o)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s (paper %s):\n%s\n", name, def, res.Format())
	case "adapt":
		res, err := experiments.AdaptStudy(o)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Format())
	case "gaps":
		res, err := experiments.GapStudy(o)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Format())
	case "sketches":
		res, err := experiments.CompareSketches(o)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, res.Format())
	case "ablations":
		studies, err := experiments.Ablations(o)
		if err != nil {
			return err
		}
		for _, s := range studies {
			fmt.Fprintln(w, s.Format())
		}
	default:
		return fmt.Errorf("unknown experiment %q (want one of %v)", name, append([]string{"all"}, allExperiments...))
	}
	fmt.Fprintf(w, "[%s done in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	return nil
}
