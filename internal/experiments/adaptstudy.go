package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/core/device"
	"repro/internal/core/multistage"
	"repro/internal/core/sampleandhold"
	"repro/internal/flow"
	"repro/internal/trace"
)

// AdaptPoint is one interval of a threshold-adaptation trajectory.
type AdaptPoint struct {
	Interval  int
	Threshold uint64
	// UsagePct is the flow memory usage at the end of the interval.
	UsagePct float64
}

// AdaptStudyResult traces the ADAPTTHRESHOLD algorithm of Figure 5: from a
// deliberately misconfigured initial threshold, the flow memory usage must
// converge to the 90% target for both algorithms.
type AdaptStudyResult struct {
	Trajectories map[string][]AdaptPoint
	Target       float64
}

// AdaptStudy runs both algorithms with adaptation over the scaled MAG
// trace, starting from a threshold 100x too high.
func AdaptStudy(o Options) (AdaptStudyResult, error) {
	o = o.withDefaults()
	res := AdaptStudyResult{Trajectories: make(map[string][]AdaptPoint), Target: 0.9}
	src, err := buildTrace("MAG", o, 18)
	if err != nil {
		return res, err
	}
	meta := src.Meta()
	initial := uint64(0.05 * meta.Capacity()) // far above any sensible value
	entries := scaleCount(devTotalEntries, o.Scale, 32)

	type variant struct {
		name    string
		mk      func() (core.Algorithm, error)
		adaptor *adapt.Adaptor
	}
	variants := []variant{
		{
			name: "sample-and-hold",
			mk: func() (core.Algorithm, error) {
				return sampleandhold.New(sampleandhold.Config{
					Entries: entries, Threshold: initial,
					Oversampling: devOversampling,
					Preserve:     true, EarlyRemoval: devEarlyRemoval, Seed: 1,
				})
			},
			adaptor: adapt.New(adapt.SampleAndHoldDefaults()),
		},
		{
			name: "multistage-filter",
			mk: func() (core.Algorithm, error) {
				return multistage.New(multistage.Config{
					Stages:  devFilterStages,
					Buckets: scaleCount(devSplit["5-tuple"].counters, o.Scale, 16),
					Entries: entries, Threshold: initial,
					Conservative: true, Shield: true, Preserve: true, Seed: 1,
				})
			},
			adaptor: adapt.New(adapt.MultistageDefaults()),
		},
	}
	for _, v := range variants {
		alg, err := v.mk()
		if err != nil {
			return res, err
		}
		dev := device.New(alg, flow.FiveTuple{}, v.adaptor)
		dev.KeepReports = false
		capacity := float64(alg.Capacity())
		dev.OnReport = func(r device.IntervalReport) {
			res.Trajectories[v.name] = append(res.Trajectories[v.name], AdaptPoint{
				Interval:  r.Interval,
				Threshold: r.Threshold,
				UsagePct:  100 * float64(r.EntriesUsed) / capacity,
			})
		}
		src.Reset()
		if _, err := trace.Replay(src, dev); err != nil {
			return res, err
		}
	}
	return res, nil
}

// Converged reports whether the trajectory's final usage is within slack
// percentage points of the target (adaptation may legitimately overshoot
// briefly; the tail is what matters).
func (r AdaptStudyResult) Converged(name string, slack float64) bool {
	tr := r.Trajectories[name]
	if len(tr) == 0 {
		return false
	}
	final := tr[len(tr)-1].UsagePct
	return final >= r.Target*100-slack && final <= 100
}

// Format renders the trajectories, sorted by name so the text is stable.
func (r AdaptStudyResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Threshold adaptation (Figure 5 algorithm), target usage %.0f%%\n", r.Target*100)
	names := make([]string, 0, len(r.Trajectories))
	for name := range r.Trajectories {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%s:\n", name)
		for _, p := range r.Trajectories[name] {
			fmt.Fprintf(&b, "  interval %2d: threshold %12d bytes, usage %5.1f%%\n",
				p.Interval, p.Threshold, p.UsagePct)
		}
	}
	return b.String()
}
