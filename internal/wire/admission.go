package wire

import (
	"net"
	"sync/atomic"
	"time"

	"feralcc/internal/storage"
)

// admission bounds concurrent statement execution server-side. Slots is a
// semaphore sized to the execution concurrency the server is willing to run;
// work that cannot start immediately either waits in a bounded queue or is
// shed with an OverloadError carrying a retry-after hint. Shedding early and
// cheaply — before the statement touches the engine — is what keeps the
// server's goodput flat when offered load exceeds capacity, instead of every
// request queueing until its deadline expires and all the work done on its
// behalf being wasted.
type admission struct {
	slots    chan struct{}
	maxQueue int
	queued   int64  // atomic: requests waiting for a slot
	ewmaNs   uint64 // atomic: smoothed per-statement service time, nanoseconds
}

func newAdmission(maxInFlight, maxQueue int) *admission {
	if maxInFlight < 1 {
		maxInFlight = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &admission{slots: make(chan struct{}, maxInFlight), maxQueue: maxQueue}
}

// ShedVerdict is the admission decision for work that cannot start
// immediately: queued is how many requests are already waiting (not counting
// this one), maxQueue the queue bound, estWait the estimated time until this
// request would reach a slot, and remaining the request's remaining deadline
// budget (0 = unbounded). It sheds when the queue is full, and sheds
// deadline-doomed work — work whose estimated wait already exceeds its
// budget — even when a queue slot is free, because queueing it can only burn
// server time on a response the client will have abandoned.
//
// It is a pure function (exported for the overload simulator in
// internal/overload, which replays the same policy under virtual time).
func ShedVerdict(queued, maxQueue int, estWait, remaining time.Duration) (shed bool, reason string) {
	if queued >= maxQueue {
		return true, "queue full"
	}
	if remaining > 0 && estWait >= remaining {
		return true, "deadline doomed"
	}
	return false, ""
}

// acquire admits one statement: immediately when a slot is free, after a
// bounded wait otherwise. A shed returns *storage.OverloadError (retryable
// after backoff); a queued request whose deadline expires before a slot
// frees returns ErrStmtDeadline, exactly as if it had timed out executing.
func (a *admission) acquire(remaining time.Duration) error {
	select {
	case a.slots <- struct{}{}:
		return nil
	default:
	}
	queued := int(atomic.LoadInt64(&a.queued))
	est := a.waitEstimate(queued + 1)
	if shed, reason := ShedVerdict(queued, a.maxQueue, est, remaining); shed {
		if reason == "queue full" {
			mShedQueueFull.Inc()
		} else {
			mShedDoomed.Inc()
		}
		return &storage.OverloadError{Reason: "admission: " + reason, RetryAfter: clampRetryAfter(est)}
	}
	atomic.AddInt64(&a.queued, 1)
	defer atomic.AddInt64(&a.queued, -1)
	if remaining > 0 {
		t := time.NewTimer(remaining)
		defer t.Stop()
		select {
		case a.slots <- struct{}{}:
			return nil
		case <-t.C:
			return &storage.OverloadError{Reason: "admission: deadline expired while queued", RetryAfter: clampRetryAfter(est)}
		}
	}
	a.slots <- struct{}{}
	return nil
}

// release returns the slot and folds the observed service time into the EWMA
// (α = 1/4) that waitEstimate consults. service <= 0 (the statement never
// ran) releases without updating the estimate.
func (a *admission) release(service time.Duration) {
	<-a.slots
	if service <= 0 {
		return
	}
	old := atomic.LoadUint64(&a.ewmaNs)
	next := uint64(service)
	if old != 0 {
		next = old - old/4 + uint64(service)/4
	}
	atomic.StoreUint64(&a.ewmaNs, next)
}

// waitEstimate guesses how long the request at the given queue position will
// wait: positions ahead of it drain maxInFlight at a time, each taking one
// smoothed service time. Before any statement has completed it assumes 1ms.
func (a *admission) waitEstimate(position int) time.Duration {
	ns := atomic.LoadUint64(&a.ewmaNs)
	if ns == 0 {
		ns = uint64(time.Millisecond)
	}
	return time.Duration(ns) * time.Duration(position) / time.Duration(cap(a.slots))
}

// clampRetryAfter keeps server-minted retry-after hints sane: long enough to
// matter (1ms), short enough that a recovered server sees traffic again
// promptly (100ms).
func clampRetryAfter(d time.Duration) time.Duration {
	if d < time.Millisecond {
		return time.Millisecond
	}
	if d > 100*time.Millisecond {
		return 100 * time.Millisecond
	}
	return d
}

// SetMaxConns bounds concurrently open connections (0 = unbounded, the
// default). A connection over the limit is rejected at accept time with a
// single CodeOverloaded response frame and closed — the client sees a
// retryable-after-backoff error, not a silent hangup. Call before Serve.
func (s *Server) SetMaxConns(n int) { s.maxConns = n }

// SetAdmission installs statement admission control: at most maxInFlight
// statements execute concurrently, at most maxQueue more wait for a slot,
// and everything beyond that — or predicted to out-wait its own deadline —
// is shed with CodeOverloaded. Call before Serve. The zero state (no call)
// admits everything, the pre-existing behavior.
func (s *Server) SetAdmission(maxInFlight, maxQueue int) {
	s.adm = newAdmission(maxInFlight, maxQueue)
}

// admit consults the admission controller before a statement executes. nil
// means a slot is held and admitDone must be called exactly once.
func (s *Server) admit(deadlineNanos int64) error {
	if s.adm == nil {
		return nil
	}
	return s.adm.acquire(time.Duration(deadlineNanos))
}

// admitDone releases the slot taken by a successful admit, reporting the
// statement's service time (0 if it never executed).
func (s *Server) admitDone(service time.Duration) {
	if s.adm != nil {
		s.adm.release(service)
	}
}

// rejectConn answers an over-limit connection with one overloaded response
// and closes it. Run on its own goroutine: a slow or unresponsive peer must
// not stall the accept loop.
func (s *Server) rejectConn(conn net.Conn) {
	defer conn.Close()
	conn.SetWriteDeadline(time.Now().Add(time.Second))
	resp := response{
		Code:            CodeOverloaded,
		Error:           "wire: server at max connections",
		RetryAfterNanos: int64(50 * time.Millisecond),
	}
	writeFrame(conn, encodeResponse(nil, &resp))
}
