package governance

import (
	"context"
	"errors"
	"time"

	"aidb/internal/ml"
)

// FaultClass partitions failures by what a caller should do next: Retry
// spends backoff only on Transient faults, and the statement store
// records Cancelled and Shed statements apart from errors.
type FaultClass int

const (
	// Permanent faults will not heal by retrying: planner errors, type
	// errors, unknown failures (the conservative default).
	Permanent FaultClass = iota
	// Transient faults are expected to clear: any error that declares
	// Transient() true, such as injected chaos faults, lock-wait
	// timeouts and deadlock aborts.
	Transient
	// Cancelled faults are the caller's own context expiring; retrying
	// against a dead context is wasted work.
	Cancelled
	// Shed faults are the governance plane refusing work: ErrShed at
	// admission, ErrMemBudget during a run. Retrying adds load where
	// the system has just asked for less.
	Shed
)

func (c FaultClass) String() string {
	switch c {
	case Permanent:
		return "permanent"
	case Transient:
		return "transient"
	case Cancelled:
		return "cancelled"
	case Shed:
		return "shed"
	default:
		return "invalid"
	}
}

// Classify buckets err. Context errors win over everything (a cancelled
// query often surfaces wrapped chaos or lock errors on the way out),
// then shedding; nil is Permanent by convention — callers check
// err != nil first.
func Classify(err error) FaultClass {
	switch {
	case err == nil:
		return Permanent
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return Cancelled
	case errors.Is(err, ErrShed), errors.Is(err, ErrMemBudget):
		return Shed
	}
	var te interface{ Transient() bool }
	if errors.As(err, &te) && te.Transient() {
		return Transient
	}
	return Permanent
}

// RetryPolicy configures Retry: exponential backoff with deterministic
// jitter, applied only to faults Classify calls Transient. Zero
// fields take the stated defaults.
type RetryPolicy struct {
	// MaxAttempts bounds total tries, including the first (default 4).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 1ms).
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff (default 100ms).
	MaxDelay time.Duration
	// Multiplier grows the backoff per retry (default 2).
	Multiplier float64
	// Jitter is the +/- fraction of each delay drawn uniformly (default
	// 0.2), decorrelating retry storms across queued queries.
	Jitter float64
	// Seed feeds the deterministic jitter stream (default 1).
	Seed uint64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 100 * time.Millisecond
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Jitter < 0 || p.Jitter > 1 {
		p.Jitter = 0.2
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// Retry runs fn up to p.MaxAttempts times, sleeping an exponentially
// growing, jittered backoff between attempts — cancellably: the backoff
// sleep selects on ctx, so a cancelled caller never waits out a delay.
// Only errors Classify calls Transient are retried; permanent, shed
// and context errors return immediately. Metrics: m.RetryAttempts
// counts re-attempts, m.RetryExhausted retries that ran out of budget
// still failing.
func Retry(ctx context.Context, p RetryPolicy, m Metrics, fn func() error) error {
	p = p.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	rng := ml.NewRNG(p.Seed)
	delay := p.BaseDelay
	var err error
	for attempt := 1; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		err = fn()
		if err == nil {
			return nil
		}
		if Classify(err) != Transient {
			return err
		}
		if attempt >= p.MaxAttempts {
			m.RetryExhausted.Inc()
			return err
		}
		// Jittered backoff: delay * (1 +/- Jitter).
		d := delay
		if p.Jitter > 0 {
			f := 1 + p.Jitter*(2*rng.Float64()-1)
			d = time.Duration(float64(d) * f)
		}
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
		delay = time.Duration(float64(delay) * p.Multiplier)
		if delay > p.MaxDelay {
			delay = p.MaxDelay
		}
		m.RetryAttempts.Inc()
	}
}
