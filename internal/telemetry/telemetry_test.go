package telemetry

import (
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/memmodel"
)

func TestAlgorithmCounters(t *testing.T) {
	var a Algorithm
	a.Init("test-alg", 128, 1000)
	a.Observe(10, 5000, memmodel.Counter{SRAMReads: 20, SRAMWrites: 10, DRAMReads: 3, DRAMWrites: 1}, 7)
	a.FilterPass()
	a.FilterPasses(4)
	a.Drop()
	a.ObserveInterval(1000, 5, 2)
	a.SetThreshold(1200)

	s := a.Snapshot()
	if s.Name != "test-alg" || s.Capacity != 128 {
		t.Fatalf("identity: got name %q capacity %d", s.Name, s.Capacity)
	}
	if s.Packets != 10 || s.Bytes != 5000 {
		t.Errorf("traffic: got %d packets, %d bytes, want 10, 5000", s.Packets, s.Bytes)
	}
	if s.FilterPasses != 5 {
		t.Errorf("filter passes: got %d, want 5", s.FilterPasses)
	}
	if s.Drops != 1 {
		t.Errorf("drops: got %d, want 1", s.Drops)
	}
	if s.Preserved != 5 || s.Evictions != 2 || s.Intervals != 1 {
		t.Errorf("interval transition: got preserved %d evictions %d intervals %d, want 5, 2, 1",
			s.Preserved, s.Evictions, s.Intervals)
	}
	// ObserveInterval resets the occupancy gauge to the preserved count.
	if s.EntriesUsed != 5 {
		t.Errorf("entries used: got %d, want 5", s.EntriesUsed)
	}
	if s.Threshold != 1200 {
		t.Errorf("threshold: got %d, want 1200", s.Threshold)
	}
	if len(s.ThresholdTrajectory) != 1 || s.ThresholdTrajectory[0] != 1000 {
		t.Errorf("trajectory: got %v, want [1000]", s.ThresholdTrajectory)
	}
	if got := s.Mem.Accesses(); got != 34 {
		t.Errorf("mem accesses: got %d, want 34", got)
	}
	if got := s.MemRefsPerPacket(); got != 3.4 {
		t.Errorf("mem refs per packet: got %g, want 3.4", got)
	}
	if got, want := s.Occupancy(), 5.0/128.0; got != want {
		t.Errorf("occupancy: got %g, want %g", got, want)
	}
	if s.Stale {
		t.Error("live snapshot marked stale")
	}
}

func TestAlgorithmZeroValue(t *testing.T) {
	var a Algorithm
	s := a.Snapshot()
	if s.MemRefsPerPacket() != 0 || s.Occupancy() != 0 {
		t.Errorf("zero-value derived metrics: refs/pkt %g occupancy %g, want 0, 0",
			s.MemRefsPerPacket(), s.Occupancy())
	}
	if len(s.ThresholdTrajectory) != 0 {
		t.Errorf("zero-value trajectory: %v", s.ThresholdTrajectory)
	}
}

func TestLaneCounters(t *testing.T) {
	var l Lane
	l.ObserveBatch(10, 3, false)
	l.ObserveBatch(5, 1, true)
	l.ObserveFlush()
	s := l.Snapshot()
	if s.Batches != 2 || s.Packets != 15 {
		t.Errorf("batches/packets: got %d/%d, want 2/15", s.Batches, s.Packets)
	}
	if s.QueueHighWater != 3 {
		t.Errorf("queue high water: got %d, want 3", s.QueueHighWater)
	}
	if s.FlushStalls != 1 {
		t.Errorf("flush stalls: got %d, want 1", s.FlushStalls)
	}
	if s.Intervals != 1 {
		t.Errorf("intervals: got %d, want 1", s.Intervals)
	}
}

func TestPipelineSnapshotPackets(t *testing.T) {
	s := PipelineSnapshot{Lanes: []LaneSnapshot{{Packets: 7}, {Packets: 11}}}
	if got := s.Packets(); got != 18 {
		t.Errorf("pipeline packets: got %d, want 18", got)
	}
}

func TestExportCounters(t *testing.T) {
	var e Export
	e.ObserveReport(3, 4500)
	e.ObserveReport(2, 3000)
	e.ObserveSent(5)
	e.ObserveAcked(4)
	e.ObserveRedelivered(1)
	e.ObserveReconnect()
	e.ObserveSendError()
	e.SetSpoolDepth(3)
	e.SetSpoolDepth(1)

	s := e.Snapshot()
	if s.Reports != 2 || s.Frames != 5 || s.Bytes != 7500 {
		t.Errorf("report intake: %+v, want 2 reports / 5 frames / 7500 bytes", s)
	}
	if s.Sent != 5 || s.Acked != 4 || s.Redelivered != 1 || s.Reconnects != 1 {
		t.Errorf("delivery: %+v", s)
	}
	if s.ExportErrors != 1 {
		t.Errorf("errors = %d, want 1", s.ExportErrors)
	}
	if s.SpoolDepth != 1 || s.SpoolHighWater != 3 {
		t.Errorf("spool: depth %d hwm %d, want 1, 3", s.SpoolDepth, s.SpoolHighWater)
	}
	// One frame acked later, none dropped: backlog is frames - acked.
	if got := s.Backlog(); got != 1 {
		t.Errorf("backlog = %d, want 1", got)
	}
}

func TestExportSnapshotBacklogUDP(t *testing.T) {
	// Pure UDP: no acks ever, so sends are final.
	s := ExportSnapshot{Frames: 10, Sent: 8, FramesDropped: 2}
	if got := s.Backlog(); got != 0 {
		t.Errorf("UDP backlog = %d, want 0 (8 sent + 2 dropped covers 10 frames)", got)
	}
	s = ExportSnapshot{Frames: 10, Sent: 7}
	if got := s.Backlog(); got != 3 {
		t.Errorf("UDP backlog = %d, want 3", got)
	}
}

func TestExportSnapshotHealth(t *testing.T) {
	ok := ExportSnapshot{Reports: 5, Frames: 9, Sent: 9, Acked: 9}
	if st, reason := ok.Health(); st != HealthOK {
		t.Errorf("clean export graded %v (%s)", st, reason)
	}
	dropped := ExportSnapshot{Frames: 9, FramesDropped: 2, ReportsDropped: 1}
	if st, reason := dropped.Health(); st != HealthDegraded || reason != "2 export frames (1 reports) dropped" {
		t.Errorf("lossy export graded %v (%q)", st, reason)
	}
	erroring := ExportSnapshot{Frames: 9, ExportErrors: 3}
	if st, reason := erroring.Health(); st != HealthDegraded || reason != "3 export errors" {
		t.Errorf("erroring export graded %v (%q)", st, reason)
	}
}

func TestDeviceSnapshotHealthIncludesExport(t *testing.T) {
	s := DeviceSnapshot{}
	if st, _ := s.Health(); st != HealthOK {
		t.Errorf("zero-value device graded %v", st)
	}
	s.Export = &ExportSnapshot{FramesDropped: 1, ReportsDropped: 1}
	if st, _ := s.Health(); st != HealthDegraded {
		t.Errorf("device with lossy export graded %v", st)
	}
	// Flow memory trouble outranks the export path in the reported reason.
	s.Algorithm.Drops = 2
	if _, reason := s.Health(); reason != "flow memory rejected 2 entries" {
		t.Errorf("reason = %q", reason)
	}
}

func TestPipelineSnapshotHealthIncludesExport(t *testing.T) {
	s := PipelineSnapshot{Lanes: []LaneSnapshot{{}}}
	if st, _ := s.Health(); st != HealthOK {
		t.Errorf("healthy pipeline graded %v", st)
	}
	s.Export = &ExportSnapshot{ExportErrors: 4}
	st, reason := s.Health()
	if st != HealthDegraded || reason != "4 export errors" {
		t.Errorf("pipeline with erroring export graded %v (%q)", st, reason)
	}
}

// TestSnapshotDuringWrites exercises the documented concurrency contract
// under the race detector: a single writer goroutine (the algorithm) and
// many concurrent Snapshot readers.
func TestSnapshotDuringWrites(t *testing.T) {
	var a Algorithm
	a.Init("race-test", 64, 100)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s := a.Snapshot()
					if s.Packets < s.Intervals { // arbitrary read to keep s live
						t.Error("fewer packets than intervals")
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		a.Observe(1, 100, memmodel.Counter{SRAMReads: uint64(i)}, i%64)
		a.FilterPass()
		if i%100 == 99 {
			a.ObserveInterval(100, i%64, 1)
			a.SetThreshold(uint64(100 + i))
		}
	}
	close(stop)
	wg.Wait()
	s := a.Snapshot()
	if s.Packets != 2000 || s.Intervals != 20 || len(s.ThresholdTrajectory) != 20 {
		t.Errorf("final counts: packets %d intervals %d trajectory %d, want 2000, 20, 20",
			s.Packets, s.Intervals, len(s.ThresholdTrajectory))
	}
}

func TestHealthStatusString(t *testing.T) {
	for _, tc := range []struct {
		h    HealthStatus
		want string
	}{
		{HealthOK, "ok"},
		{HealthDegraded, "degraded"},
		{HealthUnhealthy, "unhealthy"},
		{HealthStatus(99), "unknown"},
	} {
		t.Run(tc.want, func(t *testing.T) {
			if got := tc.h.String(); got != tc.want {
				t.Errorf("String() = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestLaneHealthJSON: lane health renders as its string form in JSON, so
// /debug/vars and /healthz read naturally.
func TestLaneHealthJSON(t *testing.T) {
	for _, tc := range []struct {
		h    LaneHealth
		want string
	}{
		{LaneHealthy, "healthy"},
		{LaneRestarted, "restarted"},
		{LaneQuarantined, "quarantined"},
		{LaneHealth(99), "unknown"},
	} {
		t.Run(tc.want, func(t *testing.T) {
			b, err := json.Marshal(LaneSnapshot{Health: tc.h})
			if err != nil {
				t.Fatal(err)
			}
			var got struct{ Health string }
			if err := json.Unmarshal(b, &got); err != nil {
				t.Fatal(err)
			}
			if got.Health != tc.want || tc.h.String() != tc.want {
				t.Errorf("health %d renders %q / %q, want %q", tc.h, got.Health, tc.h.String(), tc.want)
			}
		})
	}
}

// TestPipelineSnapshotHealthConditions: each condition Health documents
// grades the pipeline and names itself in the reason.
func TestPipelineSnapshotHealthConditions(t *testing.T) {
	for _, tc := range []struct {
		name       string
		s          PipelineSnapshot
		want       HealthStatus
		wantReason string
	}{
		{"clean", PipelineSnapshot{Lanes: []LaneSnapshot{{Packets: 10}, {Packets: 5}}}, HealthOK, ""},
		{"all_quarantined", PipelineSnapshot{Lanes: []LaneSnapshot{{Health: LaneQuarantined}, {Health: LaneQuarantined}}},
			HealthUnhealthy, "all lanes quarantined"},
		{"one_quarantined", PipelineSnapshot{Lanes: []LaneSnapshot{{}, {Health: LaneQuarantined}}},
			HealthDegraded, "1/2 lanes quarantined"},
		{"recovered_panics", PipelineSnapshot{Lanes: []LaneSnapshot{{}, {Panics: 2, Restarts: 2, Health: LaneRestarted}}},
			HealthDegraded, "lane 1 recovered 2 panics"},
		{"shed", PipelineSnapshot{Lanes: []LaneSnapshot{{ShedPackets: 3}, {DegradedPackets: 4}}},
			HealthDegraded, "7 packets shed under overload"},
		{"rejected_entries", PipelineSnapshot{Lanes: []LaneSnapshot{{}, {}}, Algorithms: []AlgorithmSnapshot{{}, {Drops: 5}}},
			HealthDegraded, "lane 1 flow memory rejected 5 entries"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, reason := tc.s.Health()
			if st != tc.want || reason != tc.wantReason {
				t.Errorf("Health() = %v (%q), want %v (%q)", st, reason, tc.want, tc.wantReason)
			}
		})
	}
}
