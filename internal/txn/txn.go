// Package txn implements aidb's transaction substrate: a strict
// two-phase-locking lock manager with wait-for-graph deadlock detection,
// and a simple transaction executor used by the learned transaction
// scheduling experiments (E11). Transactions are modelled as read/write
// sets over abstract keys; the learned scheduler in internal/txnsched
// reorders admission to reduce conflicts versus this package's FIFO
// baseline.
package txn

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// LockMode is shared or exclusive.
type LockMode int

// Lock modes.
const (
	Shared LockMode = iota
	Exclusive
)

// ErrDeadlock is returned when acquiring the lock would create a cycle in
// the wait-for graph; the requesting transaction should abort. It is
// transient: the transaction may succeed when run again.
var ErrDeadlock error = transientError("txn: deadlock detected")

// ErrAborted is returned for operations on an aborted transaction.
var ErrAborted = errors.New("txn: transaction aborted")

// ErrLockTimeout is returned by Acquire when the caller's context
// expires while the transaction is queued for a lock. The waiter is
// removed from the wait-for graph before returning, so a timed-out
// transaction never leaves ghost edges that would make later requests
// see false deadlocks. It is transient, like ErrDeadlock.
var ErrLockTimeout error = transientError("txn: lock wait timeout")

// transientError is a sentinel that declares itself retryable through
// the Transient() marker governance.Classify looks for.
type transientError string

func (e transientError) Error() string { return string(e) }

// Transient marks the error retryable.
func (transientError) Transient() bool { return true }

type lockState struct {
	holders map[uint64]LockMode
}

// LockManager grants strict 2PL locks with deadlock detection performed
// eagerly at request time (wait-die is avoided; we abort the requester on
// cycle detection, which keeps tests deterministic).
type LockManager struct {
	mu      sync.Mutex
	locks   map[string]*lockState
	waits   map[uint64]map[uint64]bool // waiter -> holders blocking it
	held    map[uint64]map[string]LockMode
	aborted map[uint64]bool
	// notify is closed and replaced whenever locks are released (or a
	// transaction is marked aborted), waking every blocked Acquire to
	// re-attempt its grant. A broadcast channel keeps the waiter set
	// free of per-key bookkeeping that a timed-out waiter would have to
	// unwind.
	notify chan struct{}
}

// NewLockManager creates an empty lock manager.
func NewLockManager() *LockManager {
	return &LockManager{
		locks:   map[string]*lockState{},
		waits:   map[uint64]map[uint64]bool{},
		held:    map[uint64]map[string]LockMode{},
		aborted: map[uint64]bool{},
		notify:  make(chan struct{}),
	}
}

// TryAcquire attempts to grant txn the lock on key in the given mode
// without blocking. It returns (true, nil) on grant, (false, nil) when it
// would have to wait, and (false, ErrDeadlock) when waiting would deadlock.
func (lm *LockManager) TryAcquire(txn uint64, key string, mode LockMode) (bool, error) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if lm.aborted[txn] {
		return false, ErrAborted
	}
	st, ok := lm.locks[key]
	if !ok {
		st = &lockState{holders: map[uint64]LockMode{}}
		lm.locks[key] = st
	}
	if lm.compatible(st, txn, mode) {
		lm.grant(st, txn, key, mode)
		delete(lm.waits, txn)
		return true, nil
	}
	// Record the wait edge and check for a cycle.
	blockers := map[uint64]bool{}
	for h := range st.holders {
		if h != txn {
			blockers[h] = true
		}
	}
	lm.waits[txn] = blockers
	if lm.cycleFrom(txn) {
		delete(lm.waits, txn)
		return false, ErrDeadlock
	}
	return false, nil
}

func (lm *LockManager) compatible(st *lockState, txn uint64, mode LockMode) bool {
	for h, m := range st.holders {
		if h == txn {
			continue
		}
		if mode == Exclusive || m == Exclusive {
			return false
		}
	}
	// Upgrade from shared to exclusive only allowed if sole holder.
	if mode == Exclusive {
		if m, ok := st.holders[txn]; ok && m == Shared && len(st.holders) > 1 {
			return false
		}
	}
	return true
}

func (lm *LockManager) grant(st *lockState, txn uint64, key string, mode LockMode) {
	if cur, ok := st.holders[txn]; !ok || mode == Exclusive || cur == Exclusive {
		if cur, ok := st.holders[txn]; ok && cur == Exclusive {
			mode = Exclusive // never downgrade
		}
		st.holders[txn] = mode
	}
	if lm.held[txn] == nil {
		lm.held[txn] = map[string]LockMode{}
	}
	lm.held[txn][key] = st.holders[txn]
}

// cycleFrom detects whether the wait-for graph has a cycle reachable from
// start. Caller holds mu.
func (lm *LockManager) cycleFrom(start uint64) bool {
	seen := map[uint64]bool{}
	var dfs func(u uint64) bool
	dfs = func(u uint64) bool {
		if u == start && len(seen) > 0 {
			return true
		}
		if seen[u] {
			return false
		}
		seen[u] = true
		for v := range lm.waits[u] {
			if dfs(v) {
				return true
			}
		}
		return false
	}
	for v := range lm.waits[start] {
		if dfs(v) {
			return true
		}
	}
	return false
}

// Acquire grants txn the lock on key in the given mode, blocking while
// other holders conflict. It returns nil on grant, ErrDeadlock when
// waiting would create a wait-for cycle, ErrAborted for an aborted
// transaction, and an error wrapping ErrLockTimeout (and ctx.Err())
// when ctx expires while queued — in which case the waiter's edges are
// removed from the wait-for graph first, so the timed-out transaction
// cannot appear as a phantom blocker in later deadlock checks.
func (lm *LockManager) Acquire(ctx context.Context, txn uint64, key string, mode LockMode) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		ok, err := lm.TryAcquire(txn, key, mode)
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		// Queued: TryAcquire recorded our wait-for edges. Sleep until the
		// next release broadcast or the deadline, whichever first.
		lm.mu.Lock()
		ch := lm.notify
		lm.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			lm.dropWaiter(txn)
			return fmt.Errorf("%w: txn %d waiting for %q: %v", ErrLockTimeout, txn, key, ctx.Err())
		}
	}
}

// dropWaiter removes txn's wait-for edges (deadline expiry while
// queued). Leaving them would be a ghost edge: a departed waiter still
// "blocking" on holders, turning unrelated requests into false
// deadlock cycles.
func (lm *LockManager) dropWaiter(txn uint64) {
	lm.mu.Lock()
	delete(lm.waits, txn)
	lm.mu.Unlock()
}

// Waiting reports whether txn currently has wait-for edges recorded.
func (lm *LockManager) Waiting(txn uint64) bool {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return len(lm.waits[txn]) > 0
}

// broadcastLocked wakes every blocked Acquire. Caller holds mu.
func (lm *LockManager) broadcastLocked() {
	close(lm.notify)
	lm.notify = make(chan struct{})
}

// Release drops all locks held by txn (commit or abort).
func (lm *LockManager) Release(txn uint64) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for key := range lm.held[txn] {
		st := lm.locks[key]
		if st != nil {
			delete(st.holders, txn)
			if len(st.holders) == 0 {
				delete(lm.locks, key)
			}
		}
	}
	delete(lm.held, txn)
	delete(lm.waits, txn)
	delete(lm.aborted, txn)
	lm.broadcastLocked()
}

// MarkAborted flags txn so further acquisitions fail fast. Blocked
// waiters are woken so an aborted transaction's Acquire fails promptly
// instead of waiting out its deadline.
func (lm *LockManager) MarkAborted(txn uint64) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	lm.aborted[txn] = true
	lm.broadcastLocked()
}

// HeldLocks reports how many locks txn currently holds.
func (lm *LockManager) HeldLocks(txn uint64) int {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return len(lm.held[txn])
}

// Transaction is a declared read/write-set transaction, the unit the
// schedulers operate on.
type Transaction struct {
	ID       uint64
	ReadSet  []string
	WriteSet []string
	// Duration is the simulated execution time in abstract ticks once all
	// locks are held.
	Duration int
}

// Conflicts reports whether a and b conflict (overlapping access with at
// least one write).
func Conflicts(a, b *Transaction) bool {
	w := map[string]bool{}
	for _, k := range a.WriteSet {
		w[k] = true
	}
	for _, k := range b.WriteSet {
		if w[k] {
			return true
		}
	}
	for _, k := range b.ReadSet {
		if w[k] {
			return true
		}
	}
	r := map[string]bool{}
	for _, k := range a.ReadSet {
		r[k] = true
	}
	for _, k := range b.WriteSet {
		if r[k] {
			return true
		}
	}
	return false
}

// String renders the transaction for debugging.
func (t *Transaction) String() string {
	return fmt.Sprintf("txn%d(r=%d,w=%d,d=%d)", t.ID, len(t.ReadSet), len(t.WriteSet), t.Duration)
}
