package governance

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aidb/internal/obs"
)

func TestAdmitUnlimited(t *testing.T) {
	g := NewAdmissionGate(0)
	for i := 0; i < 8; i++ {
		release, err := g.Admit(context.Background())
		if err != nil {
			t.Fatalf("unlimited gate refused: %v", err)
		}
		defer release()
	}
	if got := g.Active(); got != 8 {
		t.Fatalf("active = %d, want 8", got)
	}
}

func TestAdmitBoundsConcurrency(t *testing.T) {
	const max = 3
	g := NewAdmissionGate(max)
	var active, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := g.Admit(context.Background())
			if err != nil {
				t.Errorf("admit: %v", err)
				return
			}
			a := active.Add(1)
			for {
				p := peak.Load()
				if a <= p || peak.CompareAndSwap(p, a) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			active.Add(-1)
			release()
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > max {
		t.Fatalf("peak concurrency %d exceeds gate max %d", p, max)
	}
	if g.Active() != 0 || g.Queued() != 0 {
		t.Fatalf("gate not drained: active=%d queued=%d", g.Active(), g.Queued())
	}
}

func TestAdmitShedsExpiredDeadline(t *testing.T) {
	reg := obs.NewRegistry()
	g := NewAdmissionGate(1)
	g.Instrument(NewMetrics(reg))
	hold, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer hold()
	ctx, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	if _, err := g.Admit(ctx); !errors.Is(err, ErrShed) {
		t.Fatalf("expired deadline admitted: err=%v", err)
	}
	snap := reg.Snapshot()
	if snap["admission.shed"] != 1 {
		t.Fatalf("admission.shed = %v, want 1", snap["admission.shed"])
	}
	if snap["admission.admitted"] != 1 {
		t.Fatalf("admission.admitted = %v, want 1", snap["admission.admitted"])
	}
}

func TestAdmitShedsWhileQueued(t *testing.T) {
	g := NewAdmissionGate(1)
	g.Instrument(NewMetrics(obs.NewRegistry()))
	hold, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err = g.Admit(ctx)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("queued waiter past deadline: err=%v, want ErrShed", err)
	}
	if q := g.Queued(); q != 0 {
		t.Fatalf("shed waiter still queued: depth %d", q)
	}
	hold()
	// The gate must still grant after shedding.
	release, err := g.Admit(context.Background())
	if err != nil {
		t.Fatalf("gate wedged after shed: %v", err)
	}
	release()
}

func TestAdmitCancelRemovesWaiter(t *testing.T) {
	g := NewAdmissionGate(1)
	hold, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.Admit(ctx)
		done <- err
	}()
	for g.Queued() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: err=%v, want context.Canceled", err)
	}
	if q := g.Queued(); q != 0 {
		t.Fatalf("cancelled waiter still queued: depth %d", q)
	}
	hold()
}

// TestCancelledWaiterIsNotShed: a queued Admit whose context is
// cancelled reports the cancellation and leaves admission.shed alone;
// one whose deadline expires in the queue is a shed.
func TestCancelledWaiterIsNotShed(t *testing.T) {
	reg := obs.NewRegistry()
	g := NewAdmissionGate(1)
	g.Instrument(NewMetrics(reg))
	hold, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer hold()
	// queue runs one Admit that waits behind hold, calling then once it
	// is queued, and returns its error.
	queue := func(ctx context.Context, then func()) error {
		done := make(chan error, 1)
		go func() {
			_, err := g.Admit(ctx)
			done <- err
		}()
		for g.Queued() == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		then()
		return <-done
	}

	ctx, cancel := context.WithCancel(context.Background())
	err = queue(ctx, cancel)
	if !errors.Is(err, context.Canceled) || errors.Is(err, ErrShed) {
		t.Fatalf("cancelled waiter: err=%v, want context.Canceled and not ErrShed", err)
	}
	if got := reg.Snapshot()["admission.shed"]; got != 0 {
		t.Fatalf("admission.shed = %v after a cancel, want 0", got)
	}

	ctx, cancel = context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := queue(ctx, func() {}); !errors.Is(err, ErrShed) {
		t.Fatalf("waiter past its deadline: err=%v, want ErrShed", err)
	}
	if got := reg.Snapshot()["admission.shed"]; got != 1 {
		t.Fatalf("admission.shed = %v after a deadline, want 1", got)
	}
}

func TestSetMaxConcurrentGrantsWaiters(t *testing.T) {
	g := NewAdmissionGate(1)
	hold, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer hold()
	granted := make(chan struct{})
	go func() {
		release, err := g.Admit(context.Background())
		if err == nil {
			release()
		}
		close(granted)
	}()
	for g.Queued() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	g.SetMaxConcurrent(2)
	select {
	case <-granted:
	case <-time.After(2 * time.Second):
		t.Fatal("raising the bound did not grant the queued waiter")
	}
	if got := g.MaxConcurrent(); got != 2 {
		t.Fatalf("MaxConcurrent = %d, want 2", got)
	}
}

func TestReleaseIdempotent(t *testing.T) {
	g := NewAdmissionGate(2)
	release, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	release()
	release() // second call must not double-free the slot
	if a := g.Active(); a != 0 {
		t.Fatalf("active = %d after double release, want 0", a)
	}
}

func TestMemBudgetChargesAndAborts(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewMemBudget(100, NewMetrics(reg))
	if err := b.Charge(60); err != nil {
		t.Fatalf("charge within budget: %v", err)
	}
	err := b.Charge(50)
	if !errors.Is(err, ErrMemBudget) {
		t.Fatalf("over-budget charge: err=%v, want ErrMemBudget", err)
	}
	// A second failing charge must not count another abort.
	if err := b.Charge(1); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("still over budget: err=%v", err)
	}
	snap := reg.Snapshot()
	if snap["mem.aborts"] != 1 {
		t.Fatalf("mem.aborts = %v, want 1", snap["mem.aborts"])
	}
	if snap["mem.charged"] != 111 {
		t.Fatalf("mem.charged = %v, want 111", snap["mem.charged"])
	}
	if b.Used() != 111 {
		t.Fatalf("Used = %d, want 111", b.Used())
	}
}

// The streaming executor refunds live chunks while it tears a failed
// query down, so a worker that has not yet seen the error can cross the
// limit a second time. That is still one aborted query.
func TestMemBudgetAbortLatchesAcrossRefund(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewMemBudget(100, NewMetrics(reg))
	if err := b.Charge(150); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("first crossing: err=%v, want ErrMemBudget", err)
	}
	b.Refund(150)
	if err := b.Charge(150); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("second crossing: err=%v, want ErrMemBudget", err)
	}
	if got := reg.Snapshot()["mem.aborts"]; got != 1 {
		t.Fatalf("mem.aborts = %v, want 1", got)
	}
}

func TestMemBudgetNilAndUnlimited(t *testing.T) {
	var nilB *MemBudget
	if err := nilB.Charge(1 << 40); err != nil {
		t.Fatalf("nil budget charged: %v", err)
	}
	b := NewMemBudget(0, Metrics{})
	if err := b.Charge(1 << 40); err != nil {
		t.Fatalf("unlimited budget aborted: %v", err)
	}
}

// flaky is a marker error that declares itself retryable, the way
// chaos.ErrInjected and the txn lock errors do.
type flaky struct{ error }

func (flaky) Transient() bool { return true }

func TestRetryTransientThenSuccess(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	transientErr := flaky{errors.New("flaky")}
	calls := 0
	err := Retry(context.Background(), RetryPolicy{BaseDelay: time.Microsecond}, m,
		func() error {
			calls++
			if calls < 3 {
				return fmt.Errorf("attempt %d: %w", calls, transientErr)
			}
			return nil
		})
	if err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if got := reg.Snapshot()["retry.attempts"]; got != 2 {
		t.Fatalf("retry.attempts = %v, want 2", got)
	}
}

func TestRetryPermanentFailsFast(t *testing.T) {
	perm := errors.New("permanent")
	calls := 0
	err := Retry(context.Background(), RetryPolicy{BaseDelay: time.Microsecond}, Metrics{},
		func() error { calls++; return perm })
	if !errors.Is(err, perm) || calls != 1 {
		t.Fatalf("permanent error retried: calls=%d err=%v", calls, err)
	}
}

func TestRetryExhausted(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	flakyErr := flaky{errors.New("flaky")}
	calls := 0
	err := Retry(context.Background(), RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond}, m,
		func() error { calls++; return flakyErr })
	if !errors.Is(err, flakyErr) {
		t.Fatalf("exhausted retry lost the error: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if got := reg.Snapshot()["retry.exhausted"]; got != 1 {
		t.Fatalf("retry.exhausted = %v, want 1", got)
	}
}

func TestRetryBackoffCancellable(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	done := make(chan error, 1)
	go func() {
		done <- Retry(ctx, RetryPolicy{BaseDelay: time.Hour, MaxAttempts: 2}, Metrics{},
			func() error {
				started <- struct{}{}
				return flaky{errors.New("flaky")}
			})
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled backoff returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("retry backoff ignored cancellation (slept the full hour?)")
	}
}
