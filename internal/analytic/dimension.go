package analytic

import (
	"fmt"
	"math"
)

// Dimensioning is a sizing recommendation for a measurement device,
// following the paper's Sections 5.1 and 6: enough flow memory that
// overflow is a sub-0.1% event, filter stages growing logarithmically with
// the flow count at stage strength 10, and headroom for the preserve-
// entries optimization.
type Dimensioning struct {
	// SampleAndHoldEntries is the flow memory for a sample-and-hold device
	// with preserved entries (Section 4.1.3's high-probability bound).
	SampleAndHoldEntries int
	// FilterStages is the multistage filter depth: log10 of the flow count
	// so that about one small flow is expected to pass (Section 5.1).
	FilterStages int
	// FilterBuckets is the per-stage counter count for stage strength 10.
	FilterBuckets int
	// FilterEntries is the multistage filter's flow memory: twice (for
	// preservation) the high-probability bound on flows passing.
	FilterEntries int
	// SRAMBits is the total memory footprint of the multistage
	// configuration in bits, using the paper's 32-byte entries and 4-byte
	// counters.
	SRAMBits uint64
}

// Dimension recommends device sizes for measuring flows above fraction z of
// a link carrying capacity bytes per measurement interval, with n active
// flows expected and the given oversampling factor for sample and hold.
// It returns an error for out-of-range inputs.
//
// The recommendation is the conservative, distribution-free sizing of
// Section 4; Section 6's threshold adaptation then earns back the slack at
// run time by lowering the threshold until the memory is ~90% used.
func Dimension(capacity, z, oversampling float64, n int) (Dimensioning, error) {
	if capacity <= 0 || z <= 0 || z > 1 {
		return Dimensioning{}, fmt.Errorf("analytic: capacity %g, z %g out of range", capacity, z)
	}
	if oversampling <= 0 || n < 1 {
		return Dimensioning{}, fmt.Errorf("analytic: oversampling %g, n %d out of range", oversampling, n)
	}
	threshold := z * capacity

	d := Dimensioning{
		SampleAndHoldEntries: int(math.Ceil(
			SHPreserveEntriesBound(capacity, threshold, oversampling, 0.999))),
	}

	// Filter: stage strength 10, depth log10(n) (at least 1).
	d.FilterStages = int(math.Ceil(math.Log10(float64(n))))
	if d.FilterStages < 1 {
		d.FilterStages = 1
	}
	d.FilterBuckets = int(math.Ceil(10 / z))
	k := StageStrength(threshold, capacity, d.FilterBuckets)
	pass := MSFExpectedPassing(float64(n), float64(d.FilterBuckets), k, d.FilterStages)
	d.FilterEntries = 2 * int(math.Ceil(MSFHighProbPassing(pass, 0.999)))

	d.SRAMBits = uint64(d.FilterStages)*uint64(d.FilterBuckets)*4*8 +
		uint64(d.FilterEntries)*32*8
	return d, nil
}
