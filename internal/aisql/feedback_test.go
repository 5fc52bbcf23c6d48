package aisql

import (
	"context"
	"errors"
	"sort"
	"sync"
	"testing"

	"aidb/internal/catalog"
	"aidb/internal/chaos"
	"aidb/internal/exec"
	"aidb/internal/governance"
	"aidb/internal/ml"
)

// TestFeedbackLogRingAndWindow: the ring keeps the latest observations
// and the median reads the q-errors of what it kept.
func TestFeedbackLogRingAndWindow(t *testing.T) {
	f := NewFeedbackLog(4)
	for i := 1; i <= 6; i++ {
		f.Record(ObservedCardinality{Op: "Filter", Est: 10, Actual: float64(10 * i)})
	}
	if f.Total() != 6 {
		t.Errorf("total = %d, want 6", f.Total())
	}
	es := f.Entries()
	if len(es) != 4 {
		t.Fatalf("retained %d, want 4", len(es))
	}
	if es[0].Actual != 30 || es[3].Actual != 60 {
		t.Errorf("ring kept %v..%v, want 30..60", es[0].Actual, es[3].Actual)
	}
	// The retained actuals 30..60 against est 10: q-errors 3, 4, 5, 6,
	// whose upper median is 5.
	if m := f.Median(); m != 5 {
		t.Errorf("median = %v, want 5", m)
	}
}

func TestObservedCardinalityQError(t *testing.T) {
	o := ObservedCardinality{Est: 5, Actual: 50}
	if q := o.QError(); q != 10 {
		t.Errorf("q-error = %v, want 10", q)
	}
	// Under-estimation scores the same factor as over-estimation.
	if q := (ObservedCardinality{Est: 50, Actual: 5}).QError(); q != 10 {
		t.Errorf("q-error = %v, want 10", q)
	}
}

// TestFeedbackLogMedianSlides: an empty log reads 1, and the median
// follows the latest observations as older ones slide out of its
// 256-entry window.
func TestFeedbackLogMedianSlides(t *testing.T) {
	f := NewFeedbackLog(0)
	if f.Median() != 1 {
		t.Errorf("empty median = %v, want 1", f.Median())
	}
	// Perfect estimates: q-error 1 each.
	for i := 0; i < medianWindow; i++ {
		f.Record(ObservedCardinality{Est: 100, Actual: 100})
	}
	if f.Median() != 1 {
		t.Errorf("median = %v, want 1", f.Median())
	}
	// Slide in bad estimates (q-error 10); the window must forget the
	// good ones although the ring still holds them.
	for i := 0; i < medianWindow; i++ {
		f.Record(ObservedCardinality{Est: 10, Actual: 100})
	}
	if f.Median() != 10 {
		t.Errorf("median after drift = %v, want 10", f.Median())
	}
	if f.Total() != 2*medianWindow || len(f.Entries()) != 2*medianWindow {
		t.Errorf("total %d, retained %d, want %d of each", f.Total(), len(f.Entries()), 2*medianWindow)
	}
}

// TestFeedbackLogMedianMatchesWindow: for a fixed sequence of pairs, the
// gauge reads what the separate sliding window that used to answer it
// read: the upper median of the last 256 q-errors.
func TestFeedbackLogMedianMatchesWindow(t *testing.T) {
	f := NewFeedbackLog(0)
	rng := ml.NewRNG(11)
	var window []float64
	for i := 0; i < 700; i++ {
		est, actual := float64(1+rng.Intn(1000)), float64(rng.Intn(1000))
		f.Record(ObservedCardinality{Op: "Scan", Est: est, Actual: actual})
		window = append(window, ml.QError(est, actual))
		if len(window) > 256 {
			window = window[1:]
		}
		if i%50 != 0 && i != 699 {
			continue
		}
		qs := append([]float64(nil), window...)
		sort.Float64s(qs)
		if got, want := f.Median(), qs[len(qs)/2]; got != want {
			t.Fatalf("after %d pairs: median %v, window %v", i+1, got, want)
		}
	}
	// A fixed sequence with a known answer: q-errors 1..300 leave
	// 45..300 in the window, whose upper median is 45+128.
	f = NewFeedbackLog(0)
	for q := 1; q <= 300; q++ {
		f.Record(ObservedCardinality{Est: 1, Actual: float64(q)})
	}
	if m := f.Median(); m != 173 {
		t.Errorf("median = %v, want 173", m)
	}
}

// TestFeedbackLogObserverAndNil: a recorded pair reaches the median
// gauge at once, with no observer hook between them, and a nil log
// takes records and reads as empty.
func TestFeedbackLogObserverAndNil(t *testing.T) {
	f := NewFeedbackLog(0)
	f.Record(ObservedCardinality{Est: 2, Actual: 8})
	if f.Total() != 1 || f.Median() != 4 {
		t.Errorf("total %d median %v, want 1 and 4", f.Total(), f.Median())
	}
	if es := f.Entries(); len(es) != 1 || es[0].Est != 2 || es[0].Actual != 8 {
		t.Errorf("entries = %v", es)
	}

	var nilLog *FeedbackLog
	nilLog.Record(ObservedCardinality{})
	if nilLog.Total() != 0 || nilLog.Entries() != nil {
		t.Error("nil log not inert")
	}
}

func TestFeedbackLogNilSafe(t *testing.T) {
	var f *FeedbackLog
	f.Record(ObservedCardinality{Est: 1, Actual: 2})
	if f.Total() != 0 || f.Entries() != nil || f.Median() != 1 {
		t.Error("nil log not inert")
	}
}

func TestFeedbackLogConcurrent(t *testing.T) {
	f := NewFeedbackLog(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f.Record(ObservedCardinality{Est: 50, Actual: 100})
				_ = f.Median()
			}
		}()
	}
	wg.Wait()
	if f.Total() != 1600 {
		t.Errorf("total = %d, want 1600", f.Total())
	}
	if f.Median() != 2 {
		t.Errorf("median = %v, want 2", f.Median())
	}
}

// TestStatementOutcomeByFaultClass: the statement store files a
// cancelled statement as a cancel, a budget abort as a shed and a
// chaos-failed one as an error, and a successful one as none of them.
func TestStatementOutcomeByFaultClass(t *testing.T) {
	e, _ := analyzeEngine(t, 3000)
	// TRIP cancels the statement's context from inside its run.
	ctx, cancel := context.WithCancel(context.Background())
	e.ex.Funcs["TRIP"] = func(args []catalog.Value) (catalog.Value, error) { cancel(); return args[0], nil }
	if _, err := e.ExecuteContext(ctx, "SELECT a FROM big WHERE TRIP(b) < 1"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled SELECT: %v", err)
	}
	e.MemLimit = 4 << 10
	if _, err := e.Execute("SELECT a FROM big WHERE b < 2"); !errors.Is(err, governance.ErrMemBudget) {
		t.Fatalf("SELECT over a 4 KB budget: %v", err)
	}
	e.MemLimit = 0
	e.Chaos = chaos.New(1).Add(chaos.Rule{Site: exec.SiteExecScan, Kind: chaos.Error})
	if _, err := e.Execute("SELECT a FROM big WHERE b < 3"); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("chaos-failed SELECT: %v", err)
	}
	e.Chaos = nil
	if _, err := e.Execute("SELECT a FROM big WHERE b < 4"); err != nil {
		t.Fatal(err)
	}
	var calls, cancels, sheds, errs uint64
	for _, s := range e.Stmts().Snapshot() {
		calls, cancels, sheds, errs = calls+s.Calls, cancels+s.Cancels, sheds+s.Sheds, errs+s.Errors
	}
	if calls != 4 || cancels != 1 || sheds != 1 || errs != 1 {
		t.Errorf("calls %d cancels %d sheds %d errors %d, want 4 1 1 1", calls, cancels, sheds, errs)
	}
}
