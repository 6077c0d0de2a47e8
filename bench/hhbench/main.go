// Command hhbench is the device→collector benchmark: it generates seeded,
// Table 3-calibrated MAG traffic, runs it through the real measurement
// device, pipeline and export code, checks the outputs against an exact
// oracle, and prints every metric by name and unit.
//
// Usage:
//
//	hhbench -workload msf-sram -seed 1 -seconds 20 -trace 0
//	hhbench -runs 10 -o set.json            # full set: every workload, each run a child process
//	hhbench compare A.json B.json ...       # medians, quartiles and verdicts against BENCHMARK.json
//
// A single-workload run prints human-readable lines, then as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with -trace 0, the per-layer metrics with -trace 1.
// It exits 1 when a correctness check fails. Flags also take the --name
// spelling.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

func benchMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("hhbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run in this process; empty runs the full set, each run in a child process")
	seed := fs.Int64("seed", 1, "traffic seed (the full set uses seed, seed+1, ... for its runs)")
	seconds := fs.Float64("seconds", 20, "measured time per run")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	outDir := fs.String("out", "", "directory for Chrome trace-event files (default: hhbench-traces in the temp dir)")
	short := fs.Bool("short", false, "tiny trace (MAG x0.01, 4 intervals, 20 ms paced period) for smoke tests")
	runs := fs.Int("runs", 1, "full set: runs per workload")
	results := fs.String("o", "", "full set: write the runs' results as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "hhbench: -trace must be 0 or 1")
		return 2
	}
	p := params{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, short: *short, outDir: *outDir}
	if *name == "" {
		return runSet(p, *runs, *results, out)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hhbench:", err)
		return 2
	}
	res, err := runWorkload(w, p, out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hhbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hhbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runRecord is one run of a full set.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	StealPct float64 `json:"steal_pct"`
	Result   result  `json:"result"`
}

// resultsFile is what a full set writes and compare reads.
type resultsFile struct {
	Trace   int         `json:"trace"`
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

// runSet runs every workload `runs` times, round-robin so slow drift on
// the machine spreads over all workloads, each run in a child process so
// memory and CPU accounting stay per workload.
func runSet(p params, runs int, path string, out io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hhbench:", err)
		return 1
	}
	trace := 0
	if p.traced {
		trace = 1
	}
	// An interrupted set kills the run in progress instead of orphaning it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	file := resultsFile{Trace: trace, Seconds: p.seconds}
	status := 0
	for i := 0; i < runs && ctx.Err() == nil; i++ {
		for _, w := range workloads {
			seed := p.seed + int64(i)
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(p.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
			if p.short {
				args = append(args, "-short")
			}
			if p.outDir != "" {
				args = append(args, "-out", p.outDir)
			}
			fmt.Fprintf(out, "== %s seed %d\n", w.name, seed)
			st0 := readCPUStat()
			res, err := runChild(ctx, exe, args, out)
			steal := stealPct(st0, readCPUStat())
			if err != nil {
				fmt.Fprintf(os.Stderr, "hhbench: %s seed %d: %v\n", w.name, seed, err)
				status = 1
				continue
			}
			if !res.Correct {
				status = 1
			}
			file.Runs = append(file.Runs, runRecord{Workload: w.name, Seed: seed, StealPct: steal, Result: res})
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "hhbench: interrupted")
		return 1
	}
	if path != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(path, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "hhbench:", err)
			return 1
		}
		fmt.Fprintf(out, "wrote %d runs to %s\n", len(file.Runs), path)
	}
	return status
}

// runChild runs one workload in a child process, echoes its human-readable
// lines, and parses its last line.
func runChild(ctx context.Context, exe string, args []string, out io.Writer) (result, error) {
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Fprintln(out, last)
		}
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil || !strings.HasPrefix(last, "{") {
		return res, errors.Join(runErr, fmt.Errorf("no result line (last line %q)", last))
	}
	var exit *exec.ExitError
	if runErr != nil && !(errors.As(runErr, &exit) && !res.Correct) {
		return res, runErr
	}
	return res, nil
}
