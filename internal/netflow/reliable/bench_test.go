package reliable

import (
	"net"
	"testing"
	"time"
)

// BenchmarkDurableEnqueue measures what each fsync policy costs on the
// device's per-interval hot path: one Enqueue of a three-frame report with
// the disk spool journaling every frame. "off" is the in-memory baseline
// (no SpoolDir); the other lanes differ only in when the journal calls
// fsync. This is the number EXPERIMENTS.md quotes for the durability tax.
func BenchmarkDurableEnqueue(b *testing.B) {
	policies := []struct {
		name string
		dir  bool
		pol  FsyncPolicy
	}{
		{"off", false, FsyncNone},
		{"none", true, FsyncNone},
		{"timer", true, FsyncTimer},
		{"batch", true, FsyncPerBatch},
		{"frame", true, FsyncPerFrame},
	}
	pkts := mkPkts(3, "bench")
	var payload int
	for _, p := range pkts {
		payload += len(p)
	}
	for _, pc := range policies {
		b.Run(pc.name, func(b *testing.B) {
			cfg := fastConfig("127.0.0.1:1") // reserved port: dial fails, exporter backs off
			cfg.SpoolFrames = 8
			cfg.BackoffMin = time.Hour
			cfg.BackoffMax = time.Hour
			cfg.DrainTimeout = time.Millisecond
			if pc.dir {
				cfg.SpoolDir = b.TempDir()
				cfg.Fsync = pc.pol
			}
			exp, err := NewExporter(cfg, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer exp.Close()
			exp.Enqueue(pkts) // warm the scratch buffer
			b.SetBytes(int64(payload))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				exp.Enqueue(pkts)
			}
		})
	}
}

// BenchmarkServerDeliverReport measures the collector's side of the
// durability tax: one op is one 68-frame report (the export-paced
// benchmark's report size, full 1464-byte v5 packets) written by a raw
// client over loopback and acked by a Server whose Journal runs under each
// fsync policy; "off" is the server without a journal. The server delivers
// in group commits, so fsyncs/report shows how many batches a report took.
// Disk-bound, so it is smoke-tested in CI but not gated.
func BenchmarkServerDeliverReport(b *testing.B) {
	const frames = 68
	policies := []struct {
		name    string
		journal bool
		pol     FsyncPolicy
	}{
		{"off", false, FsyncNone},
		{"none", true, FsyncNone},
		{"timer", true, FsyncTimer},
		{"batch", true, FsyncPerBatch},
		{"frame", true, FsyncPerFrame},
	}
	payload := make([]byte, 1464)
	for _, pc := range policies {
		b.Run(pc.name, func(b *testing.B) {
			var cfg ServerConfig
			if pc.journal {
				j, _, err := OpenJournal(JournalConfig{Dir: b.TempDir(), Fsync: pc.pol}, nil)
				if err != nil {
					b.Fatal(err)
				}
				defer j.Close()
				cfg.Journal = j
			}
			srv, addr, err := Listen("127.0.0.1:0", cfg, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			conn, err := net.Dial("tcp", addr.String())
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(appendHello(nil, 1, 0)); err != nil {
				b.Fatal(err)
			}
			var seq uint64
			var wire, buf []byte
			report := func() {
				wire = wire[:0]
				for range frames {
					seq++
					wire = appendDataFrame(wire, seq, payload)
				}
				if _, err := conn.Write(wire); err != nil {
					b.Fatal(err)
				}
				for {
					f, err := readFrame(conn, &buf, DefaultMaxFrameBytes)
					if err != nil {
						b.Fatal(err)
					}
					if f.typ == frameAck && f.seq == seq {
						return
					}
				}
			}
			report() // warm the connection and the journal's scratch
			var fsyncs0 uint64
			if cfg.Journal != nil {
				fsyncs0 = cfg.Journal.Durability().Snapshot().Fsyncs
			}
			b.SetBytes(frames * int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				report()
			}
			b.StopTimer()
			if cfg.Journal != nil {
				fsyncs := cfg.Journal.Durability().Snapshot().Fsyncs - fsyncs0
				b.ReportMetric(float64(fsyncs)/float64(b.N), "fsyncs/report")
			}
		})
	}
}
