package governance

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"aidb/internal/chaos"
	"aidb/internal/txn"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want FaultClass
	}{
		{"nil", nil, Permanent},
		{"injected", chaos.ErrInjected, Transient},
		{"injected-wrapped", fmt.Errorf("exec: scan t: %w", chaos.ErrInjected), Transient},
		{"lock-timeout", fmt.Errorf("%w: txn 7", txn.ErrLockTimeout), Transient},
		{"deadlock", txn.ErrDeadlock, Transient},
		{"aborted", txn.ErrAborted, Permanent},
		{"cancelled", context.Canceled, Cancelled},
		{"deadline", fmt.Errorf("query: %w", context.DeadlineExceeded), Cancelled},
		{"marker-interface", flaky{errors.New("blip")}, Transient},
		{"unknown", errors.New("syntax error"), Permanent},
		{"shed", ErrShed, Shed},
		{"shed-wrapped", fmt.Errorf("%w: deadline 3ms away, queue depth 9", ErrShed), Shed},
		{"mem-budget", ErrMemBudget, Shed},
		{"mem-budget-wrapped", fmt.Errorf("exec: hash build: %w", ErrMemBudget), Shed},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("%s: Classify = %v, want %v", c.name, got, c.want)
		}
	}
	// The sentinels stay sentinels: errors.Is still tells them apart.
	if errors.Is(txn.ErrDeadlock, txn.ErrLockTimeout) || errors.Is(chaos.ErrInjected, txn.ErrDeadlock) {
		t.Error("transient sentinels compare equal")
	}
}

// TestCancelledBeatsTransient: a cancelled query surfacing a wrapped
// transient fault on the way out must not be retried.
func TestCancelledBeatsTransient(t *testing.T) {
	err := fmt.Errorf("%w while handling %w", context.Canceled, chaos.ErrInjected)
	if Classify(err) != Cancelled {
		t.Fatalf("Classify = %v, want Cancelled", Classify(err))
	}
	calls := 0
	got := Retry(context.Background(), RetryPolicy{BaseDelay: time.Microsecond}, Metrics{},
		func() error { calls++; return err })
	if calls != 1 || got != err {
		t.Fatalf("a cancelled query ran %d times, returned %v", calls, got)
	}
}

// TestShedIsNeverRetried: shedding wins over a transient fault it
// wraps, and Retry gives a shed or budget-aborted statement one try.
func TestShedIsNeverRetried(t *testing.T) {
	for _, err := range []error{
		ErrShed,
		fmt.Errorf("%w: deadline expired while queued", ErrShed),
		ErrMemBudget,
		fmt.Errorf("exec: sort: %w", ErrMemBudget),
		fmt.Errorf("%w after %w", ErrMemBudget, chaos.ErrInjected),
	} {
		if c := Classify(err); c != Shed {
			t.Errorf("Classify(%v) = %v, want Shed", err, c)
		}
		calls := 0
		got := Retry(context.Background(), RetryPolicy{BaseDelay: time.Microsecond}, Metrics{},
			func() error { calls++; return err })
		if calls != 1 || got != err {
			t.Errorf("%v: ran %d times, returned %v", err, calls, got)
		}
	}
}
