package main

import (
	"bufio"
	"cmp"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quartiles returns the first quartile, median and third quartile of vs by
// the "exclusive" method of Python's statistics.quantiles(vs, n=4), so the
// spreads this benchmark reports are the ones a Python reader recomputes.
// A single value is its own quartiles.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		delta := i*m - j*4
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median returns the median of vs (0 for none).
func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// quietest returns the indexes of the lowest tenth of vs, and at least the
// lowest three (all of vs when it has fewer). On a shared VM other tenants
// slow every core by up to 2x for tens of seconds at a time; the quietest
// passes of a run measure the program, the rest mostly its neighbours.
func quietest(vs []float64) []int {
	idx := make([]int, len(vs))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(vs[a], vs[b]) })
	return idx[:min(len(vs), max(3, len(vs)/10))]
}

// pick returns vs at the given indexes.
func pick(vs []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = vs[j]
	}
	return out
}

// percentile returns the p-th percentile (0-100) of vs by nearest rank.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	i := int(float64(len(s))*p/100+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}

// tailPercentile is the highest percentile of n samples that still has at
// least ten samples beyond it, capped at 95: p95 from 200 samples up, lower
// for fewer.
func tailPercentile(n int) float64 {
	if n <= 10 {
		return 50
	}
	return min(95, 100*float64(n-10)/float64(n))
}

// durationsMs converts durations to float milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// cpuTime returns the process's user+system CPU time, all threads included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMiB forces a full collection and returns the live heap in MiB.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// mallocs returns the cumulative heap allocation count (stops the world
// briefly, so callers keep it out of timed loops).
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// cpuStat is the machine-wide aggregate CPU line of /proc/stat, in ticks.
type cpuStat struct{ total, steal uint64 }

// readCPUStat reads /proc/stat; on systems without it the zero value makes
// stealPct report 0.
func readCPUStat() cpuStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuStat{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuStat{}
		}
		// guest and guest_nice (fields 9-10) are already inside user/nice.
		if i < 8 {
			st.total += v
		}
		if i == 7 {
			st.steal = v
		}
	}
	return st
}

// stealPct is the share of machine CPU time stolen by the hypervisor
// between two readings, in percent.
func stealPct(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}
