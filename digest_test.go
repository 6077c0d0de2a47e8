package traffic

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"testing"
)

// reportDigest hashes every field of every interval report in order, so any
// drift in membership, estimates, ordering, thresholds or entry counts
// changes the digest.
func reportDigest(reports []IntervalReport) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, r := range reports {
		put(uint64(r.Interval))
		put(r.Threshold)
		put(uint64(r.EntriesUsed))
		put(uint64(len(r.Estimates)))
		for _, e := range r.Estimates {
			put(e.Key.Hi)
			put(e.Key.Lo)
			put(e.Bytes)
			if e.Exact {
				put(1)
			} else {
				put(0)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestTrace generates the seeded MAG trace the digest configurations run
// on: the benchmark's traffic mix at a smaller scale.
func digestTrace(t *testing.T) (TraceMeta, []Packet) {
	t.Helper()
	cfg, err := Preset("MAG")
	if err != nil {
		t.Fatal(err)
	}
	cfg = cfg.Scaled(0.1).WithIntervals(12)
	cfg.Seed = 1
	src, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pkts []Packet
	for {
		p, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, p)
	}
	return src.Meta(), pkts
}

// TestReportDigests pins seeded SHA-256 digests of every IntervalReport for
// three device shapes: the Section 7.2 5-tuple multistage device with
// cache-resident state (msf-sram), the same device with 4×2^20 counters and
// 65 536 entries (msf-dram), and a 2-lane sample-and-hold pipeline
// (sh-2lane). Kernel and interval-close refactors must keep every report
// byte-identical; a digest change is a behaviour change.
func TestReportDigests(t *testing.T) {
	meta, pkts := digestTrace(t)
	threshold := uint64(0.001 * meta.Capacity())
	msf := func(buckets, entries int) func() ([]IntervalReport, error) {
		return func() ([]IntervalReport, error) {
			alg, err := NewMultistageFilter(MultistageConfig{
				Stages: 4, Buckets: buckets, Entries: entries, Threshold: threshold,
				Conservative: true, Shield: true, Preserve: true, Seed: 5,
			})
			if err != nil {
				return nil, err
			}
			dev := NewDevice(alg, FiveTuple, NewAdaptor(MultistageAdaptation()))
			if _, err := Replay(NewSliceSource(meta, pkts), dev, WithBatchSize(256)); err != nil {
				return nil, err
			}
			return dev.Reports(), nil
		}
	}
	cases := []struct {
		name string
		run  func() ([]IntervalReport, error)
		want string
	}{
		{"msf-sram", msf(3114, 2539), "92ddb42db3db4d9bce610f4903febf4c28daa292fd318d0a487f64ac5eb64bdd"},
		{"msf-dram", msf(1<<20, 65536), "0528215ab6ff055f89160159f2ccf12bab971dd08522f41c0a9fd9c44bffcca5"},
		{"sh-2lane", func() ([]IntervalReport, error) {
			p, err := NewPipeline(PipelineConfig{
				Shards: 2, BatchSize: 256, QueueDepth: 256, Overload: OverloadBlock,
				Definition: FiveTuple,
				NewAlgorithm: func(lane int) (Algorithm, error) {
					return NewSampleAndHold(SampleAndHoldConfig{
						Entries: 2048, Threshold: threshold, Oversampling: 4, Seed: int64(lane) + 3,
					})
				},
			})
			if err != nil {
				return nil, err
			}
			_, err = Replay(NewSliceSource(meta, pkts), p, WithBatchSize(256))
			p.Close()
			return p.Reports(), err
		}, "d889ec07782de67a0c87d7c9010511bbc382a4e188192c8dcc27cf043e1d3b74"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reports, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if len(reports) != meta.Intervals {
				t.Fatalf("%d reports, want %d", len(reports), meta.Intervals)
			}
			if got := reportDigest(reports); got != c.want {
				t.Errorf("report digest %s, want %s", got, c.want)
			}
		})
	}
}
