package analytic

import (
	"math"
	"testing"
)

// The paper's running example (Section 4): 100 Mbyte/s link, one second
// intervals, threshold 1% (1 Mbyte), 100,000 flows.
const (
	exC = 1e8
	exT = 1e6
)

func approx(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	if want == 0 {
		if math.Abs(got) > relTol {
			t.Errorf("%s = %g, want ~0", name, got)
		}
		return
	}
	if math.Abs(got-want)/math.Abs(want) > relTol {
		t.Errorf("%s = %g, want %g (+-%g%%)", name, got, want, relTol*100)
	}
}

func TestNormalQuantile(t *testing.T) {
	// The paper's two quoted quantiles: 99% -> 2.33, 99.9% -> 3.08.
	approx(t, "z(0.99)", NormalQuantile(0.99), 2.33, 0.01)
	approx(t, "z(0.999)", NormalQuantile(0.999), 3.08, 0.01)
	if NormalQuantile(0.5) != 0 {
		t.Errorf("z(0.5) = %g", NormalQuantile(0.5))
	}
	for _, p := range []float64{0, 1, -1, 2} {
		func() {
			defer func() { recover() }()
			NormalQuantile(p)
			t.Errorf("NormalQuantile(%g) did not panic", p)
		}()
	}
}

func TestSHSamplingProb(t *testing.T) {
	// Section 4.1.1 example: O=20, T=1 Mbyte -> p = 1 in 50,000 bytes.
	approx(t, "p", SHSamplingProb(20, exT), 2e-5, 1e-9)
	if SHSamplingProb(10, 5) != 1 {
		t.Error("p should saturate at 1")
	}
}

func TestSHFalseNegProb(t *testing.T) {
	// "An oversampling factor of 20 results in a probability of missing
	// flows at the threshold of 2*10^-9."
	approx(t, "miss(O=20)", SHFalseNegProb(20), 2.06e-9, 0.01)
}

func TestSHErrorFormulas(t *testing.T) {
	p := SHSamplingProb(20, exT)
	approx(t, "E[s-c]", SHExpectedError(p), 50000, 1e-9)
	approx(t, "SD[s-c]", SHErrorSD(p), math.Sqrt(1-p)/p, 1e-12)
	// "With an oversampling factor O of 20, the relative error for a flow
	// at the threshold is 7%."
	approx(t, "relerr(O=20)", SHRelErrorAtThreshold(20, p), 0.0707, 0.01)
}

func TestSHMemoryBounds(t *testing.T) {
	// "Using an oversampling of 20 requires 2,000 entries on average."
	approx(t, "expected entries", SHExpectedEntries(exC, exT, 20), 2000, 1e-9)
	// "For an oversampling of 20 and an overflow probability of 0.1% we
	// need at most 2,147 entries." (We compute 2000 + 3.08*sqrt(2000) ~
	// 2138; the paper's printed 2,147 differs by <0.5%.)
	approx(t, "0.1% bound", SHEntriesBound(exC, exT, 20, 0.999), 2147, 0.01)
	// "...the flow memory has to have at most 4,207 entries to preserve
	// entries." (4000 + 3.08*sqrt(4000) ~ 4195.)
	approx(t, "preserve bound", SHPreserveEntriesBound(exC, exT, 20, 0.999), 4207, 0.01)
	// "An oversampling of 20 and R = 0.2T with overflow probability 0.1%
	// requires 2,647 memory entries." (500 + 2000 + 3.08*sqrt(2000) ~ 2638.)
	approx(t, "early removal bound", SHEarlyRemovalEntriesBound(exC, exT, 20, 0.2*exT, 0.999), 2647, 0.01)
}

func TestSHEarlyRemovalFalseNegProb(t *testing.T) {
	// "...increases the probability of missing a large flow from 2*10^-9 to
	// 1.1*10^-7 with an oversampling of 20" for R = 0.2T.
	approx(t, "miss(O=20, R=0.2T)", SHEarlyRemovalFalseNegProb(20, 0.2), 1.125e-7, 0.01)
}

func TestSHZipfEntriesBoundTable4(t *testing.T) {
	// Table 4 (threshold 0.025% of link, oversampling 4): the general
	// bound is 16,385 entries for every trace; the Zipf bounds are 8,148
	// (MAG 5-tuple, n~100k) down to 5,081 (COS, n~5.5k).
	generalBound := SHEntriesBound(1.5552e9, 0.00025*1.5552e9, 4, 0.999)
	approx(t, "Table 4 general bound", generalBound, 16385, 0.01)

	magC := 1.5552e9 // OC-48 bytes per 5s interval
	zipfMag := SHZipfEntriesBound(magC, 0.00025*magC, 4, 100105, 1, 0.999)
	// Same ballpark as the paper's 8,148; the paper's exact Zipf tail
	// handling is unpublished, so accept 25%.
	approx(t, "Table 4 Zipf bound (MAG)", zipfMag, 8148, 0.25)

	// For the small COS trace the paper's (unpublished) Zipf-tail handling
	// differs more from ours; require only the same order of magnitude and
	// the qualitative property of undercutting the general bound.
	cosC := 9.72e7 // OC-3 bytes per 5s interval
	zipfCos := SHZipfEntriesBound(cosC, 0.00025*cosC, 4, 5497, 1, 0.999)
	if zipfCos < 5081/2 || zipfCos > 5081*2 {
		t.Errorf("Table 4 Zipf bound (COS) = %g, want within 2x of 5081", zipfCos)
	}

	// The Zipf bound must always undercut the distribution-free bound.
	if zipfMag >= generalBound {
		t.Errorf("Zipf bound %g not below general bound %g", zipfMag, generalBound)
	}
}

func TestStageStrength(t *testing.T) {
	// Section 4.2 example: 1000 buckets, T = 1% of C -> k = 10.
	approx(t, "k", StageStrength(exT, exC, 1000), 10, 1e-9)
}

func TestMSFPassProbLemma1(t *testing.T) {
	// Section 3.2 preliminary analysis: a 100 Kbyte flow against T = 1
	// Mbyte, 1000 buckets, 100 Mbyte of traffic: one stage passes with
	// probability ~11.1%, four stages with ~1.52*10^-4.
	k := StageStrength(exT, exC, 1000)
	approx(t, "1 stage", MSFPassProb(k, 1, 1e5, exT), 0.111, 0.01)
	approx(t, "4 stages", MSFPassProb(k, 4, 1e5, exT), 1.52e-4, 0.02)
	// Above the Lemma 1 range the bound degrades to 1.
	if MSFPassProb(k, 4, 0.95*exT, exT) != 1 {
		t.Error("pass probability should be 1 outside Lemma 1's range")
	}
	// Monotonicity: more stages never increase the pass probability.
	for d := 2; d <= 6; d++ {
		if MSFPassProb(k, d, 1e5, exT) > MSFPassProb(k, d-1, 1e5, exT) {
			t.Errorf("pass probability increased at depth %d", d)
		}
	}
}

func TestMSFErrorLowerBoundTheorem2(t *testing.T) {
	// T(1/d - 1/(k(d-1))) - ymax with the running example and 1500-byte
	// packets: 1e6*(0.25 - 1/30) - 1500 ~ 215,167.
	got := MSFErrorLowerBound(exT, 4, 10, 1500)
	approx(t, "Theorem 2", got, 215166, 0.001)
	// d=1 degenerates to T(1-1/k) - ymax.
	approx(t, "Theorem 2 d=1", MSFErrorLowerBound(exT, 1, 10, 1500), 898500, 0.001)
	// Never negative.
	if MSFErrorLowerBound(100, 4, 1.01, 1500) < 0 {
		t.Error("lower bound went negative")
	}
}

func TestMSFExpectedPassingTheorem3(t *testing.T) {
	// "Theorem 3 gives a bound of 121.2 flows" (n=100,000, b=1,000, k=10,
	// d=4); "using 5 would give 112.1".
	approx(t, "d=4", MSFExpectedPassing(1e5, 1e3, 10, 4), 121.2, 0.005)
	approx(t, "d=5", MSFExpectedPassing(1e5, 1e3, 10, 5), 112.1, 0.005)
	// Degenerate case: k*n <= b means no filtering at all.
	if got := MSFExpectedPassing(100, 1e6, 1, 4); got != 100 {
		t.Errorf("degenerate case = %g, want n", got)
	}
}

func TestMSFHighProbPassing(t *testing.T) {
	// The paper's example: expectation ~122, and "the probability that
	// more than 185 flows pass the filter is at most 0.1%". Our Chernoff
	// inversion must land in the same region (between the mean and the
	// paper's looser bound).
	x := MSFHighProbPassing(122, 0.999)
	if x <= 122 || x > 185 {
		t.Errorf("high-prob bound = %g, want in (122, 185]", x)
	}
	// More probability -> larger bound.
	if MSFHighProbPassing(122, 0.9999) <= x {
		t.Error("tighter probability did not increase the bound")
	}
	if MSFHighProbPassing(0, 0.999) != 0 {
		t.Error("zero mean should give zero bound")
	}
}

func TestMSFZipfPassFraction(t *testing.T) {
	// The Zipf bound of Figure 7 must (a) fall with depth, (b) stay below
	// the general bound.
	v := 2.6e8
	threshold := v / 4096
	prev := 1.0
	for d := 1; d <= 4; d++ {
		zipf := MSFZipfPassFraction(v, threshold, 1000, d, 100000, 1)
		general := MSFGeneralPassFraction(v, threshold, 1000, d, 100000)
		if zipf > prev {
			t.Errorf("Zipf bound rose at depth %d: %g > %g", d, zipf, prev)
		}
		if zipf > general {
			t.Errorf("depth %d: Zipf bound %g above general bound %g", d, zipf, general)
		}
		prev = zipf
	}
}

func TestTable1(t *testing.T) {
	// M entries such that Mz equals the oversampling of the examples.
	rows := Table1(2000, 0.01, 100000, 1, 16)
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	mz := 2000 * 0.01 // 20
	approx(t, "S&H error", rows[0].RelativeError, math.Sqrt2/mz, 1e-9)
	approx(t, "MSF error", rows[1].RelativeError, (1+10*math.Log10(1e5))/mz, 1e-9)
	approx(t, "sampling error", rows[2].RelativeError, 1/math.Sqrt(mz), 1e-9)
	if rows[0].MemoryAccesses != 1 {
		t.Error("S&H accesses != 1")
	}
	approx(t, "MSF accesses", rows[1].MemoryAccesses, 6, 1e-9) // 1+log10(1e5)
	approx(t, "sampling accesses", rows[2].MemoryAccesses, 1.0/16, 1e-9)
	// The square-root disadvantage: for the same memory, sampling's error
	// must exceed sample and hold's.
	if rows[2].RelativeError <= rows[0].RelativeError {
		t.Error("sampling should be less accurate than sample and hold")
	}
}

func TestNetFlowRelError(t *testing.T) {
	// Larger z or t help NetFlow; the formula is 0.0088/sqrt(zt).
	approx(t, "z=0.01,t=1", NetFlowRelError(0.01, 1), 0.088, 1e-9)
	approx(t, "z=0.01,t=100", NetFlowRelError(0.01, 100), 0.0088, 1e-9)
}

func TestTable2(t *testing.T) {
	rows := Table2(0.01, 5, 4, 10, 1e5, 16, 80)
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	sh, msf, nf := rows[0], rows[1], rows[2]
	if sh.ExactPct != 80 || msf.ExactPct != 80 || nf.ExactPct != 0 {
		t.Error("exact-measurement percentages wrong")
	}
	approx(t, "S&H err", sh.RelativeError, math.Sqrt2/4, 1e-9)
	approx(t, "MSF err", msf.RelativeError, 0.1, 1e-9)
	approx(t, "NF err", nf.RelativeError, 0.0088/math.Sqrt(0.05), 1e-9)
	approx(t, "S&H mem", sh.MemoryBound, 800, 1e-9)
	approx(t, "MSF mem", msf.MemoryBound, 200+500, 1e-9)
	approx(t, "NF mem", nf.MemoryBound, 1e5, 1e-9) // min(n, 2.43e6)
	if nf2 := Table2(0.01, 0.01, 4, 10, 1e7, 16, 80)[2]; nf2.MemoryBound != 4860 {
		t.Errorf("NF mem bound = %g, want DRAM-update limited 4860", nf2.MemoryBound)
	}
}

func TestTable2PaperAlgorithmsWinAtSmallThresholds(t *testing.T) {
	// The paper's headline: for small flows-of-interest (small z) and short
	// intervals, sample and hold and multistage filters beat NetFlow by a
	// wide margin because NetFlow's error grows as 1/sqrt(zt).
	rows := Table2(0.0001, 5, 20, 10, 1e5, 16, 80)
	sh, msf, nf := rows[0], rows[1], rows[2]
	if sh.RelativeError >= nf.RelativeError || msf.RelativeError >= nf.RelativeError {
		t.Errorf("paper algorithms should beat NetFlow: S&H %.3f MSF %.3f NF %.3f",
			sh.RelativeError, msf.RelativeError, nf.RelativeError)
	}
	// And NetFlow improves with longer intervals: the t-dependence the
	// paper calls out as NetFlow's only accuracy lever.
	nfLong := Table2(0.0001, 500, 20, 10, 1e5, 16, 80)[2]
	if nfLong.RelativeError >= nf.RelativeError {
		t.Error("NetFlow error should fall with longer intervals")
	}
}

func TestShieldedStageStrength(t *testing.T) {
	// Shielding away half the traffic doubles the stage strength...
	approx(t, "k*2", ShieldedStageStrength(10, 2), 20, 1e-9)
	// ...and never weakens it.
	if ShieldedStageStrength(10, 0.5) != 10 {
		t.Error("shielding must not reduce stage strength")
	}
	// Substituting into Theorem 3 must reduce the expected passing flows.
	base := MSFExpectedPassing(1e5, 1e3, 10, 4)
	shielded := MSFExpectedPassing(1e5, 1e3, ShieldedStageStrength(10, 3), 4)
	if shielded >= base {
		t.Errorf("shielded bound %g not below base %g", shielded, base)
	}
}

// TestTable1OrdinarySamplingScaling: ordinary sampling's error falls only
// as the square root of its memory, while sample and hold's falls linearly,
// so quadrupling the memory halves one and quarters the other. Its memory
// accesses are the sampling rate 1/x whatever the memory.
func TestTable1OrdinarySamplingScaling(t *testing.T) {
	small := Table1(1000, 0.01, 100000, 1, 16)
	large := Table1(4000, 0.01, 100000, 1, 16)
	approx(t, "sampling error ratio", small[2].RelativeError/large[2].RelativeError, 2, 1e-9)
	approx(t, "S&H error ratio", small[0].RelativeError/large[0].RelativeError, 4, 1e-9)
	approx(t, "sampling accesses", large[2].MemoryAccesses, small[2].MemoryAccesses, 1e-9)
	approx(t, "sampling accesses at x=100", Table1(1000, 0.01, 100000, 1, 100)[2].MemoryAccesses, 0.01, 1e-9)
}
