package traffic

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"testing"

	"repro/internal/adapt"
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

// perPacketConsumer hides a device's PacketBatch, so Replay drives it one
// Packet call at a time.
type perPacketConsumer struct{ dev *Device }

func (c perPacketConsumer) Packet(p *Packet)   { c.dev.Packet(p) }
func (c perPacketConsumer) EndInterval(iv int) { c.dev.EndInterval(iv) }

// TestReportDigests pins seeded SHA-256 digests of every IntervalReport for
// the benchmark's device shapes — the Section 7.2 5-tuple multistage device
// with cache-resident state (msf-sram), the same device with 4×2^20
// counters and 65 536 entries (msf-dram), and a 2-lane sample-and-hold
// pipeline (sh-2lane) — plus the kernel paths around them: msf-sram driven
// per packet, the doublehash and multiplyshift families in odd-sized
// batches, a serial classic-update filter, and a sample-and-hold device
// with preservation, early removal and the correction factor. Kernel and
// interval-close refactors must keep every report byte-identical; a digest
// change is a behaviour change.
func TestReportDigests(t *testing.T) {
	meta, pkts := digestTrace(t)
	threshold := uint64(0.001 * meta.Capacity())
	// device replays the trace through a Section 7.2 device around alg in
	// batches of batchSize, or one Packet call at a time when batchSize is 0.
	device := func(alg Algorithm, adaptation AdaptConfig, batchSize int) ([]IntervalReport, error) {
		dev := NewDevice(alg, FiveTuple, NewAdaptor(adaptation))
		var c Consumer = dev
		if batchSize == 0 {
			c = perPacketConsumer{dev}
		}
		if _, err := Replay(NewSliceSource(meta, pkts), c, WithBatchSize(max(batchSize, 1))); err != nil {
			return nil, err
		}
		return dev.Reports(), nil
	}
	msfConfig := func(buckets, entries int) MultistageConfig {
		return MultistageConfig{
			Stages: 4, Buckets: buckets, Entries: entries, Threshold: threshold,
			Conservative: true, Shield: true, Preserve: true, Seed: 5,
		}
	}
	msfRun := func(cfg MultistageConfig, batchSize int) func() ([]IntervalReport, error) {
		return func() ([]IntervalReport, error) {
			alg, err := NewMultistageFilter(cfg)
			if err != nil {
				return nil, err
			}
			return device(alg, MultistageAdaptation(), batchSize)
		}
	}
	msf := func(buckets, entries int) func() ([]IntervalReport, error) {
		return msfRun(msfConfig(buckets, entries), 256)
	}
	withHash := func(hash string) MultistageConfig {
		cfg := msfConfig(3114, 2539)
		cfg.Hash = hash
		return cfg
	}
	serial := msfConfig(3114, 2539)
	serial.Serial, serial.Conservative = true, false
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
		{"msf-sram-per-packet", msfRun(msfConfig(3114, 2539), 0), "92ddb42db3db4d9bce610f4903febf4c28daa292fd318d0a487f64ac5eb64bdd"},
		{"msf-doublehash-batch7", msfRun(withHash("doublehash"), 7), "8bc496b267a540313c573b9d0163c97c7d7da6e1994052fb357aefb79561a818"},
		{"msf-multiplyshift-batch7", msfRun(withHash("multiplyshift"), 7), "ae24d26544eb313c24523cf75e72e5d5631beb368fb561c69346050950ead4bd"},
		{"msf-serial-classic", msfRun(serial, 256), "264804df20ceba3059a0f349ed5134df09ce7d9842c82b4364c059c01be48381"},
		{"sh-preserve-early-correction", func() ([]IntervalReport, error) {
			alg, err := NewSampleAndHold(SampleAndHoldConfig{
				Entries: 2539, Threshold: threshold, Oversampling: 4.7, Seed: 3,
				Preserve: true, EarlyRemoval: 0.15, Correction: true,
			})
			if err != nil {
				return nil, err
			}
			return device(alg, adapt.SampleAndHoldDefaults(), 256)
		}, "4869f2102d07308ff2615fa053e150c375b8ca26878aac5b3bf8a367179bc8fa"},
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
