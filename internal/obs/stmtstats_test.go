package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestStatementStatsRecordAndSnapshot(t *testing.T) {
	s := NewStatementStats(0)
	obsv := func(outcome StmtOutcome, lat int64, rows int64) {
		s.Record(StmtObservation{
			Fingerprint: "Filter(Scan(t))", Query: "SELECT a FROM t WHERE b < ?",
			Outcome: outcome, LatencyNs: lat, Rows: rows, Chunks: 2, PeakBytes: lat * 2,
		})
	}
	obsv(StmtOK, 1000, 10)
	obsv(StmtOK, 3000, 30)
	obsv(StmtError, 9000, 0)
	obsv(StmtCancel, 500, 0)
	obsv(StmtShed, 100, 0)

	snap := s.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d entries, want 1", len(snap))
	}
	e := snap[0]
	if e.Fingerprint != "Filter(Scan(t))" || e.Query != "SELECT a FROM t WHERE b < ?" {
		t.Fatalf("identity = %q / %q", e.Fingerprint, e.Query)
	}
	if e.Calls != 5 || e.Errors != 1 || e.Cancels != 1 || e.Sheds != 1 {
		t.Fatalf("counts = calls %d errors %d cancels %d sheds %d", e.Calls, e.Errors, e.Cancels, e.Sheds)
	}
	if e.Rows != 40 || e.TotalNs != 13600 || e.Chunks != 10 {
		t.Fatalf("sums = rows %d total %d chunks %d", e.Rows, e.TotalNs, e.Chunks)
	}
	if e.MinNs != 100 || e.MaxNs != 9000 || e.PeakBytes != 18000 {
		t.Fatalf("extrema = min %d max %d peak %d", e.MinNs, e.MaxNs, e.PeakBytes)
	}
	if e.P50Ns <= 0 || e.P95Ns < e.P50Ns || e.P99Ns < e.P95Ns {
		t.Fatalf("quantiles not monotone: p50 %d p95 %d p99 %d", e.P50Ns, e.P95Ns, e.P99Ns)
	}
	now := time.Now().UnixNano()
	if e.FirstSeenNs <= 0 || e.LastSeenNs < e.FirstSeenNs || e.LastSeenNs > now {
		t.Fatalf("seen range = [%d, %d] vs now %d", e.FirstSeenNs, e.LastSeenNs, now)
	}
	if s.Len() != 1 || s.Evicted() != 0 {
		t.Fatalf("len %d evicted %d", s.Len(), s.Evicted())
	}
}

func TestStatementStatsEvictionAtCap(t *testing.T) {
	s := NewStatementStats(2)
	for i := 0; i < 3; i++ {
		s.Record(StmtObservation{Fingerprint: fmt.Sprintf("fp%d", i), Outcome: StmtOK, LatencyNs: 1})
		time.Sleep(time.Millisecond) // order last-seen distinctly
	}
	if s.Len() != 2 || s.Evicted() != 1 {
		t.Fatalf("len %d evicted %d, want 2 / 1", s.Len(), s.Evicted())
	}
	// fp0 was least recently seen; fp1 and fp2 survive.
	for _, e := range s.Snapshot() {
		if e.Fingerprint == "fp0" {
			t.Fatal("least-recently-seen entry was not the one evicted")
		}
	}
	// A recorded fingerprint that survived keeps accumulating, not
	// re-inserting.
	s.Record(StmtObservation{Fingerprint: "fp2", Outcome: StmtOK, LatencyNs: 1})
	if s.Len() != 2 || s.Evicted() != 1 {
		t.Fatalf("after re-record: len %d evicted %d", s.Len(), s.Evicted())
	}
}

// TestStatementStatsConcurrent hammers Record from many goroutines
// while others snapshot and serialize — the -race run is the assertion,
// plus conservation of the call count.
func TestStatementStatsConcurrent(t *testing.T) {
	s := NewStatementStats(64)
	const writers = 8
	const perWriter = 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Record(StmtObservation{
					Fingerprint: fmt.Sprintf("fp%d", i%16),
					Outcome:     StmtOutcome(i % 4),
					LatencyNs:   int64(i + 1),
					Rows:        1,
				})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			var calls uint64
			for _, e := range s.Snapshot() {
				calls += e.Calls
			}
			if calls != writers*perWriter {
				t.Fatalf("calls = %d, want %d", calls, writers*perWriter)
			}
			return
		default:
			_ = s.Snapshot()
			var buf bytes.Buffer
			if _, err := s.WriteJSONTo(&buf); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestStatementStatsNilSafe(t *testing.T) {
	var s *StatementStats
	s.Record(StmtObservation{Fingerprint: "fp"})
	if s.Snapshot() != nil || s.Len() != 0 || s.Evicted() != 0 {
		t.Fatal("nil store is not inert")
	}
	var buf bytes.Buffer
	if _, err := s.WriteJSONTo(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestStatementStatsJSONRoundTrip(t *testing.T) {
	s := NewStatementStats(0)
	s.Record(StmtObservation{Fingerprint: "fp", Query: "SELECT 1", Outcome: StmtOK, LatencyNs: 42, Rows: 1})
	var buf bytes.Buffer
	if _, err := s.WriteJSONTo(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded []StatementStat
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded) != 1 || decoded[0].Fingerprint != "fp" || decoded[0].Calls != 1 {
		t.Fatalf("round trip = %+v", decoded)
	}
}

func TestRegisterProcMetrics(t *testing.T) {
	reg := NewRegistry()
	RegisterProcMetrics(reg)
	snap := reg.Snapshot()
	for _, name := range []string{"proc.uptime_ns", "proc.goroutines", "proc.heap_alloc_bytes", "proc.gc_pause_total_ns"} {
		v, ok := snap[name]
		if !ok {
			t.Fatalf("metric %s not registered (have %v)", name, snap)
		}
		if name != "proc.gc_pause_total_ns" && v <= 0 {
			t.Fatalf("%s = %v, want > 0", name, v)
		}
	}
	// The sampler caches MemStats between reads; values must still be
	// readable repeatedly (and uptime must advance).
	u1 := snap["proc.uptime_ns"]
	time.Sleep(time.Millisecond)
	u2 := reg.Snapshot()["proc.uptime_ns"]
	if u2 <= u1 {
		t.Fatalf("uptime did not advance: %v -> %v", u1, u2)
	}
}

// BenchmarkStatementStatsRecord is the per-statement cost the store
// adds to the query path: one Record over a rotating fingerprint set
// sized like a busy plan cache.
func BenchmarkStatementStatsRecord(b *testing.B) {
	const fps = 64
	s := NewStatementStats(0)
	o := StmtObservation{Query: "SELECT a FROM t WHERE b < ?", Outcome: StmtOK, LatencyNs: 12345, Rows: 10, Chunks: 1, PeakBytes: 4096}
	var names [fps]string
	for i := range names {
		names[i] = fmt.Sprintf("fp-%02d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Fingerprint = names[i%fps]
		s.Record(o)
	}
}
