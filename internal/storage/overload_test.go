package storage

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestLockQueueNoWaitSheds pins the negative-bound semantics: with
// LockQueueBound < 0 any acquire that would block sheds immediately with a
// retryable-after-backoff overload error, never parking at all.
func TestLockQueueNoWaitSheds(t *testing.T) {
	lm := newLockManager(time.Second, -1, nil)
	if err := lm.Acquire(1, "k", LockX); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := lm.Acquire(2, "k", LockX)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("expected overload shed, got %v", err)
	}
	if waited := time.Since(start); waited > 200*time.Millisecond {
		t.Fatalf("no-wait shed took %v; it must not park", waited)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.RetryAfterHint() <= 0 {
		t.Fatalf("shed must carry a retry-after hint: %v", err)
	}
	if !oe.Retryable() {
		t.Fatal("shed must self-report retryable")
	}
	// Compatible acquisitions are unaffected by the bound.
	if err := lm.Acquire(3, "k2", LockX); err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(1)
	// With the holder gone, the previously shed owner succeeds outright.
	if err := lm.Acquire(2, "k", LockX); err != nil {
		t.Fatalf("post-release acquire should succeed: %v", err)
	}
}

// TestLockQueueBoundLimitsWaiters pins the positive-bound semantics: N
// waiters may park, the N+1st sheds.
func TestLockQueueBoundLimitsWaiters(t *testing.T) {
	lm := newLockManager(time.Second, 1, nil)
	if err := lm.Acquire(1, "k", LockX); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	waiterParked := make(chan struct{})
	waiterDone := make(chan error, 1)
	go func() {
		defer wg.Done()
		close(waiterParked)
		waiterDone <- lm.Acquire(2, "k", LockX)
	}()
	<-waiterParked
	// Give the waiter time to actually enter the queue.
	deadline := time.Now().Add(time.Second)
	for {
		lm.mu.Lock()
		queued := len(lm.entries["k"].queue)
		lm.mu.Unlock()
		if queued == 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// The queue is at its bound: a third owner sheds instead of parking.
	if err := lm.Acquire(3, "k", LockX); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("expected shed at full queue, got %v", err)
	}
	lm.ReleaseAll(1)
	if err := <-waiterDone; err != nil {
		t.Fatalf("queued waiter should win the lock: %v", err)
	}
	wg.Wait()
	lm.ReleaseAll(2)
}
