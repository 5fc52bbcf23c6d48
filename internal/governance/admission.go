package governance

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrShed is returned by AdmissionGate.Admit when a request is shed:
// its deadline expired — or would expire, given the current queue and
// the observed hold times — before a slot could be granted. Shedding
// early is the overload-governance contract: a request that cannot
// finish in time must not consume queue space and worker capacity that
// requests with live deadlines could use.
var ErrShed = errors.New("governance: admission shed")

// admissionWaiter is one queued Admit call. Its lifecycle is guarded by
// the gate mutex: the releaser either grants it (granted=true, slot
// already charged) or sheds it (shed=true), then closes ch exactly once.
type admissionWaiter struct {
	ch       chan struct{}
	deadline time.Time
	hasDL    bool
	granted  bool
	shed     bool
}

// AdmissionGate is a bounded concurrent-query semaphore with a
// deadline-aware FIFO wait queue. Requests whose context deadline has
// expired — or is closer than the gate's estimate of their queue wait —
// are shed with ErrShed instead of queued, so under sustained overload
// the queue holds only requests that can still meet their deadlines and
// p95 latency stays bounded by the deadline instead of growing with the
// backlog.
//
// A zero MaxConcurrent disables the gate: every Admit succeeds
// immediately. All methods are safe for concurrent use. Make one with
// NewAdmissionGate.
type AdmissionGate struct {
	mu     sync.Mutex
	max    int
	active int
	queue  []*admissionWaiter

	// ewmaHoldNs estimates how long one admitted query holds its slot,
	// updated on every release. It seeds the predictive shed check: a
	// request queued behind k others expects to wait about
	// ceil(k+1/max) * hold.
	ewmaHoldNs float64

	// leave is the release of every statement admitted while the gate
	// has no bound, made once (see Admit).
	leave func()

	m Metrics
}

// NewAdmissionGate creates a gate admitting at most maxConcurrent
// queries at once (0 = unlimited).
func NewAdmissionGate(maxConcurrent int) *AdmissionGate {
	if maxConcurrent < 0 {
		maxConcurrent = 0
	}
	g := &AdmissionGate{max: maxConcurrent}
	g.leave = g.leaveUnbounded
	return g
}

// Instrument wires the gate's admitted/shed/queued_ns metrics.
func (g *AdmissionGate) Instrument(m Metrics) {
	g.mu.Lock()
	g.m = m
	g.mu.Unlock()
}

// MaxConcurrent reports the current concurrency bound (0 = unlimited).
func (g *AdmissionGate) MaxConcurrent() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.max
}

// Active reports how many admitted queries currently hold a slot.
func (g *AdmissionGate) Active() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.active
}

// Queued reports the current wait-queue depth.
func (g *AdmissionGate) Queued() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.queue)
}

// SetMaxConcurrent changes the concurrency bound (0 = unlimited) and
// immediately grants queued waiters any newly freed capacity. Shrinking
// never evicts running queries; the tighter bound applies as slots
// drain.
func (g *AdmissionGate) SetMaxConcurrent(n int) {
	if n < 0 {
		n = 0
	}
	g.mu.Lock()
	g.max = n
	g.grantLocked()
	g.mu.Unlock()
}

// estWaitLocked estimates the queue wait for a request entering at
// position pos (0 = head). Caller holds mu.
func (g *AdmissionGate) estWaitLocked(pos int) time.Duration {
	if g.max <= 0 || g.ewmaHoldNs <= 0 {
		return 0
	}
	// pos+1 requests (including this one) must be granted; max slots
	// turn over roughly once per hold time.
	rounds := (pos + g.max) / g.max
	return time.Duration(float64(rounds) * g.ewmaHoldNs)
}

// Admit blocks until the gate grants a slot, the context is cancelled,
// or the request is shed. On success it returns a release func that
// MUST be called exactly once when the query finishes. On shed it
// returns an error wrapping ErrShed; on plain cancellation, the context
// error.
//
// While the gate has no bound, Admit reads no clock and allocates
// nothing: every such statement gets the same release. It keeps no hold
// time, since only a bounded gate predicts queue waits, and a second
// call would free another statement's slot. A bounded gate's release is
// idempotent.
func (g *AdmissionGate) Admit(ctx context.Context) (release func(), err error) {
	if g == nil {
		return func() {}, nil
	}
	g.mu.Lock()
	if g.max <= 0 {
		g.active++
		g.mu.Unlock()
		g.m.Admitted.Inc()
		g.m.QueuedNs.Observe(0)
		return g.leave, nil
	}
	if g.active < g.max && len(g.queue) == 0 {
		g.active++
		g.mu.Unlock()
		g.m.Admitted.Inc()
		g.m.QueuedNs.Observe(0)
		return g.releaseFunc(time.Now()), nil
	}
	// Deadline-aware shedding at enqueue time: a request that cannot be
	// granted before its deadline is refused now rather than queued.
	if dl, ok := ctx.Deadline(); ok {
		if wait := time.Until(dl); wait <= 0 || wait < g.estWaitLocked(len(g.queue)) {
			depth := len(g.queue)
			g.mu.Unlock()
			g.m.Shed.Inc()
			return nil, fmt.Errorf("%w: deadline %v away, queue depth %d", ErrShed, wait.Round(time.Microsecond), depth)
		}
	}
	w := &admissionWaiter{ch: make(chan struct{})}
	w.deadline, w.hasDL = ctx.Deadline()
	g.queue = append(g.queue, w)
	g.mu.Unlock()
	start := time.Now()

	select {
	case <-w.ch:
		// The releaser settled us under the lock: either granted (slot
		// already charged) or shed (deadline expired while queued).
		if w.shed {
			g.m.Shed.Inc()
			return nil, fmt.Errorf("%w: deadline expired while queued", ErrShed)
		}
		g.m.Admitted.Inc()
		g.m.QueuedNs.Observe(float64(time.Since(start)))
		return g.releaseFunc(time.Now()), nil
	case <-ctx.Done():
		g.mu.Lock()
		if w.granted {
			// Lost the race: a releaser granted us concurrently. Give the
			// slot back and report the cancellation.
			g.active--
			g.grantLocked()
			g.mu.Unlock()
		} else {
			g.removeLocked(w)
			g.mu.Unlock()
		}
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			g.m.Shed.Inc()
			return nil, fmt.Errorf("%w: %v", ErrShed, ctx.Err())
		}
		return nil, ctx.Err()
	}
}

// releaseFunc returns the once-only slot release for one admitted
// query, folding its hold time into the EWMA estimate.
func (g *AdmissionGate) releaseFunc(grantedAt time.Time) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			hold := float64(time.Since(grantedAt))
			g.mu.Lock()
			// EWMA with alpha 0.2: responsive to load shifts, stable
			// against one outlier query.
			if g.ewmaHoldNs == 0 {
				g.ewmaHoldNs = hold
			} else {
				g.ewmaHoldNs += 0.2 * (hold - g.ewmaHoldNs)
			}
			g.active--
			g.grantLocked()
			g.mu.Unlock()
		})
	}
}

// leaveUnbounded releases the slot of a statement admitted while the
// gate had no bound.
func (g *AdmissionGate) leaveUnbounded() {
	g.mu.Lock()
	g.active--
	g.grantLocked()
	g.mu.Unlock()
}

// grantLocked hands freed slots to queued waiters in FIFO order,
// shedding any whose deadline has already expired. Caller holds mu.
func (g *AdmissionGate) grantLocked() {
	if len(g.queue) == 0 {
		return
	}
	now := time.Now()
	for len(g.queue) > 0 && (g.max <= 0 || g.active < g.max) {
		w := g.queue[0]
		g.queue = g.queue[1:]
		if w.hasDL && !w.deadline.After(now) {
			w.shed = true
			close(w.ch)
			continue
		}
		w.granted = true
		g.active++
		close(w.ch)
	}
}

// removeLocked drops a still-queued waiter (cancelled before grant).
// Caller holds mu.
func (g *AdmissionGate) removeLocked(w *admissionWaiter) {
	for i, q := range g.queue {
		if q == w {
			g.queue = append(g.queue[:i], g.queue[i+1:]...)
			return
		}
	}
}
