package guard

import (
	"sync"
	"testing"

	"aidb/internal/obs"
)

// TestTransitionEventsExactlyOnce drives a breaker from 8 goroutines
// through many trip / half-open / re-admit cycles and checks the
// transition history is a valid chain with exactly one event per state
// change: sequence numbers are gapless, every edge count matches the
// Stats counters, and the instrumented listener fired once per event
// (registry counters equal history counts — no double-counting, no
// drops).
func TestTransitionEventsExactlyOnce(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{
		WindowSize:       8,
		TripQError:       4,
		TripFailures:     3,
		CooldownCalls:    5,
		ProbeCalls:       4,
		MaxCooldownCalls: 20,
	}
	b := NewBreaker(cfg)
	InstrumentBreaker(b, reg, "test")

	// One goroutine's cycle walks all four edges on its own: failures
	// trip, a cooldown half-opens, a failed probe round re-trips, a
	// healthy one re-admits, a drifted window trips. Each cooldown wait
	// covers the longest backed-off cooldown. However the scheduler
	// interleaves the goroutines, failures outnumber successes four to
	// one, so three arrive in a row somewhere: the history is never empty.
	repeat := func(n int, f func()) {
		for i := 0; i < n; i++ {
			f()
		}
	}
	cycle := func() {
		b.ObserveSuccess()
		repeat(cfg.TripFailures, b.ObserveFailure)                             // closed -> open: failures
		repeat(cfg.MaxCooldownCalls, func() { b.UseModel() })                  // open -> half-open
		b.ObserveFailure()                                                     // a failed probe round:
		repeat(cfg.ProbeCalls-1, func() { b.ObserveQError(1) })                // half-open -> open
		repeat(cfg.MaxCooldownCalls, func() { b.UseModel() })                  // open -> half-open
		repeat(cfg.ProbeCalls, func() { b.ObserveQError(1) })                  // half-open -> closed
		repeat(cfg.WindowSize, func() { b.ObserveQError(9) })                  // closed -> open: drift
		repeat(cfg.MaxCooldownCalls, func() { b.UseModel() })                  // open -> half-open
		repeat(cfg.ProbeCalls, func() { b.ObserveQError(cfg.TripQError / 2) }) // half-open -> closed
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			repeat(50, cycle)
		}()
	}
	wg.Wait()

	trs := b.Transitions()
	if len(trs) == 0 {
		t.Fatal("workload produced no transitions; test is vacuous")
	}
	// The history must be a gapless chain starting from Closed.
	prev := Closed
	edges := map[[2]State]uint64{}
	causes := map[string]uint64{}
	for i, tr := range trs {
		if tr.Seq != uint64(i)+1 {
			t.Fatalf("transition %d has Seq %d (duplicate or dropped event)", i, tr.Seq)
		}
		if tr.From != prev {
			t.Fatalf("transition %d: From %v, want %v (broken chain)", i, tr.From, prev)
		}
		if tr.From == tr.To {
			t.Fatalf("transition %d: self-loop %v -> %v", i, tr.From, tr.To)
		}
		prev = tr.To
		edges[[2]State{tr.From, tr.To}]++
		causes[tr.Cause]++
	}
	if b.State() != prev {
		t.Fatalf("final state %v does not match last transition %v", b.State(), prev)
	}

	// Each edge count must agree with the Stats counters maintained
	// independently under the same lock.
	st := b.Stats()
	if got := edges[[2]State{Closed, Open}]; got != st.Trips {
		t.Errorf("closed->open transitions = %d, Stats.Trips = %d", got, st.Trips)
	}
	if got := edges[[2]State{HalfOpen, Open}]; got != st.Reopens {
		t.Errorf("half-open->open transitions = %d, Stats.Reopens = %d", got, st.Reopens)
	}
	if got := edges[[2]State{HalfOpen, Closed}]; got != st.Recoveries {
		t.Errorf("half-open->closed transitions = %d, Stats.Recoveries = %d", got, st.Recoveries)
	}
	if got, want := edges[[2]State{Closed, Open}], causes["drift"]+causes["failures"]; got != want {
		t.Errorf("closed->open transitions = %d, trip causes = %d", got, want)
	}

	// The listener must have fired exactly once per transition: every
	// registry edge counter equals the history's count, and the cause
	// counters sum to the history length.
	snap := reg.Snapshot()
	for edge, want := range edges {
		name := "guard.test.transitions." + edge[0].String() + "_to_" + edge[1].String()
		if got := snap[name]; got != float64(want) {
			t.Errorf("%s = %v, want %d", name, got, want)
		}
	}
	var causeTotal float64
	for c, want := range causes {
		name := "guard.test.cause." + c
		if got := snap[name]; got != float64(want) {
			t.Errorf("%s = %v, want %d", name, got, want)
		}
		causeTotal += snap[name]
	}
	if causeTotal != float64(len(trs)) {
		t.Errorf("cause counters sum to %v, want %d (one per transition)", causeTotal, len(trs))
	}
	if got := snap["guard.test.state"]; got != float64(b.State()) {
		t.Errorf("state gauge = %v, want %d", got, int(b.State()))
	}
}
