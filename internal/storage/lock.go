package storage

import (
	"slices"
	"sync"
	"time"

	"feralcc/internal/obs"
)

// LockMode is the mode of a row or predicate lock. The manager implements
// standard multi-granularity locking: intent modes (IS, IX) are taken on
// coarse resources (whole tables) to announce fine-grained locks beneath
// them, so that a full-table shared lock conflicts with any writer while
// disjoint writers do not conflict with each other.
type LockMode uint8

const (
	// LockIS is an intent-shared lock (fine-grained shared locks below).
	LockIS LockMode = iota
	// LockIX is an intent-exclusive lock (fine-grained exclusive locks below).
	LockIX
	// LockS is a shared lock.
	LockS
	// LockX is an exclusive lock.
	LockX
)

// String returns the conventional name of the mode.
func (m LockMode) String() string {
	switch m {
	case LockIS:
		return "IS"
	case LockIX:
		return "IX"
	case LockS:
		return "S"
	case LockX:
		return "X"
	default:
		return "?"
	}
}

// lockCompatible is the classic multi-granularity compatibility matrix.
var lockCompatible = [4][4]bool{
	//            IS     IX     S      X
	LockIS: {true, true, true, false},
	LockIX: {true, true, false, false},
	LockS:  {true, false, true, false},
	LockX:  {false, false, false, false},
}

// stronger reports whether holding a subsumes a request for b.
var lockSubsumes = [4][4]bool{
	//            IS     IX     S      X
	LockIS: {true, false, false, false},
	LockIX: {true, true, false, false},
	LockS:  {true, false, true, false},
	LockX:  {true, true, true, true},
}

// combine returns the weakest mode subsuming both a and b (the upgrade
// target when a holder re-requests in a new mode).
func combineLockModes(a, b LockMode) LockMode {
	if lockSubsumes[a][b] {
		return a
	}
	if lockSubsumes[b][a] {
		return b
	}
	// IS+IX -> IX, S+IX -> X (SIX approximated by X), S+IS -> S.
	if (a == LockS && b == LockIX) || (a == LockIX && b == LockS) {
		return LockX
	}
	if (a == LockIS && b == LockIX) || (a == LockIX && b == LockIS) {
		return LockIX
	}
	return LockX
}

// lockWaiter is one queued lock request.
type lockWaiter struct {
	owner   uint64
	mode    LockMode
	granted chan struct{}
	done    bool // set once granted or abandoned
}

// lockEntry is the state of one lockable resource.
type lockEntry struct {
	holders map[uint64]LockMode
	queue   []*lockWaiter
}

// lockManager provides blocking row and predicate locks with FIFO queuing
// and timeout-based deadlock resolution. Resources are identified by opaque
// string keys; the storage layer derives them from (table, row id) for row
// locks and (table, column, value) or (table) for predicate locks.
type lockManager struct {
	mu      sync.Mutex
	entries map[string]*lockEntry
	timeout time.Duration
	// queueBound is Options.LockQueueBound: 0 unbounded, N>0 at most N
	// waiters per resource, negative no waiting at all (immediate shed).
	queueBound int
	// yielder, when non-nil, is the deterministic scheduler: waiters queue as
	// in production, and only the wait parks instead of blocking.
	yielder Yielder
}

func newLockManager(timeout time.Duration, queueBound int, yielder Yielder) *lockManager {
	return &lockManager{entries: make(map[string]*lockEntry), timeout: timeout, queueBound: queueBound, yielder: yielder}
}

// Acquire takes (or upgrades to) the given mode on key for owner, blocking
// until compatible or until the timeout elapses, in which case it returns
// ErrLockTimeout. Re-acquiring an already-subsumed mode is a no-op.
func (lm *lockManager) Acquire(owner uint64, key string, mode LockMode) error {
	return lm.acquire(owner, key, mode, time.Time{}, nil)
}

// acquire is the one acquire path. A non-zero deadline is layered on the lock
// timeout: the nearer bound wins, and deadline expiry returns ErrStmtDeadline
// (the caller's budget ran out) rather than ErrLockTimeout (the engine's
// deadlock verdict). tr, when non-nil, accumulates queued wait time into the
// statement's lock_wait span; fast-path grants record nothing.
func (lm *lockManager) acquire(owner uint64, key string, mode LockMode, deadline time.Time, tr *obs.StmtTrace) error {
	wait, timeoutErr := lm.timeout, ErrLockTimeout
	if !deadline.IsZero() {
		if until := time.Until(deadline); until < wait {
			wait, timeoutErr = until, ErrStmtDeadline
		}
	}
	if wait <= 0 {
		return ErrStmtDeadline
	}
	lm.mu.Lock()
	e := lm.entries[key]
	if e == nil {
		e = &lockEntry{holders: make(map[uint64]LockMode, 1)}
		lm.entries[key] = e
	}
	held, holding := e.holders[owner]
	if holding {
		if lockSubsumes[held][mode] {
			lm.mu.Unlock()
			return nil
		}
		mode = combineLockModes(held, mode)
	}
	if e.grantable(owner, mode) && !e.hasBlockedStrangers(owner) {
		e.holders[owner] = mode
		lm.mu.Unlock()
		return nil
	}
	if b := lm.queueBound; b != 0 && (b < 0 || len(e.queue) >= b) {
		lm.mu.Unlock()
		mLockSheds.Inc()
		return &OverloadError{Reason: "lock wait queue full", RetryAfter: overloadRetryAfter(lm.timeout / 4)}
	}
	w := &lockWaiter{owner: owner, mode: mode, granted: make(chan struct{})}
	if holding {
		// Upgrades jump the queue: a holder waiting behind strangers who in
		// turn wait on it is an instant deadlock; granting upgrades first is
		// the standard mitigation (true upgrade deadlocks still resolve by
		// timeout). No release will promote an upgrade already grantable at
		// the head (a sole S holder behind a queued X waiter), so promote now.
		e.queue = append([]*lockWaiter{w}, e.queue...)
		e.promoteLocked()
		if w.done {
			lm.mu.Unlock()
			return nil
		}
	} else {
		e.queue = append(e.queue, w)
	}
	lm.mu.Unlock()

	waitStart := time.Now()
	mLockWaits.Inc()
	err := lm.wait(w, wait, timeoutErr)
	waited := time.Since(waitStart)
	mLockWaitSeconds.Observe(waited)
	tr.Add(obs.SpanLockWait, waited)
	if err != nil {
		return lm.abandon(e, w, err)
	}
	return nil
}

// wait blocks until w is granted (nil) or gives up: after d with timeoutErr,
// or, under the scheduler, where time plays no part, with ErrLockTimeout when
// the task is nominated a deadlock victim.
func (lm *lockManager) wait(w *lockWaiter, d time.Duration, timeoutErr error) error {
	if y := lm.yielder; y != nil {
		lm.mu.Lock()
		defer lm.mu.Unlock()
		for !w.done {
			lm.mu.Unlock()
			err := y.Park(ParkLockWait, true)
			lm.mu.Lock()
			if err != nil {
				return ErrLockTimeout
			}
		}
		return nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-w.granted:
		return nil
	case <-timer.C:
		return timeoutErr
	}
}

// abandon ends a wait that gave up: the waiter leaves the queue, whoever it
// blocked is promoted, and err is returned. A grant that raced the give-up
// wins: the lock is held and abandon returns nil.
func (lm *lockManager) abandon(e *lockEntry, w *lockWaiter, err error) error {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if w.done {
		return nil
	}
	w.done = true
	e.queue = slices.DeleteFunc(e.queue, func(q *lockWaiter) bool { return q == w })
	e.promoteLocked()
	mLockTimeouts.Inc()
	return err
}

// ReleaseAll drops every lock held or requested by owner and wakes any
// newly-grantable waiters.
func (lm *lockManager) ReleaseAll(owner uint64) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for key, e := range lm.entries {
		changed := false
		if _, ok := e.holders[owner]; ok {
			delete(e.holders, owner)
			changed = true
		}
		for i := 0; i < len(e.queue); {
			if e.queue[i].owner == owner && !e.queue[i].done {
				e.queue[i].done = true
				e.queue = append(e.queue[:i], e.queue[i+1:]...)
				changed = true
				continue
			}
			i++
		}
		if changed {
			e.promoteLocked()
		}
		if len(e.holders) == 0 && len(e.queue) == 0 {
			delete(lm.entries, key)
		}
	}
}

// Holds reports whether owner holds a lock subsuming mode on key.
func (lm *lockManager) Holds(owner uint64, key string, mode LockMode) bool {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	e := lm.entries[key]
	if e == nil {
		return false
	}
	held, ok := e.holders[owner]
	return ok && lockSubsumes[held][mode]
}

// grantable reports whether owner may take mode given current holders.
func (e *lockEntry) grantable(owner uint64, mode LockMode) bool {
	for h, m := range e.holders {
		if h == owner {
			continue
		}
		if !lockCompatible[m][mode] {
			return false
		}
	}
	return true
}

// hasBlockedStrangers reports whether another transaction is already queued,
// in which case new requests queue behind it (FIFO fairness, no starvation).
func (e *lockEntry) hasBlockedStrangers(owner uint64) bool {
	for _, w := range e.queue {
		if w.owner != owner && !w.done {
			return true
		}
	}
	return false
}

// promoteLocked grants queued requests that have become compatible, in FIFO
// order, stopping at the first ungrantable waiter to preserve fairness.
// Caller holds lm.mu.
func (e *lockEntry) promoteLocked() {
	for len(e.queue) > 0 {
		w := e.queue[0]
		if w.done {
			e.queue = e.queue[1:]
			continue
		}
		mode := w.mode
		if held, ok := e.holders[w.owner]; ok {
			mode = combineLockModes(held, mode)
		}
		if !e.grantable(w.owner, mode) {
			return
		}
		e.holders[w.owner] = mode
		w.done = true
		close(w.granted)
		e.queue = e.queue[1:]
	}
}

// lock key construction ------------------------------------------------------

// rowLockKey names the row-level lock resource for (table, row).
func rowLockKey(table string, id RowID) string {
	return "r\x00" + table + "\x00" + formatRowID(id)
}

// predLockKey names the value-level predicate lock for (table, col, value).
func predLockKey(table, col, valueKey string) string {
	return "p\x00" + table + "\x00" + col + "\x00" + valueKey
}

// tableLockKey names the whole-table resource used for intent locks and for
// full-scan predicate locks.
func tableLockKey(table string) string {
	return "t\x00" + table
}
