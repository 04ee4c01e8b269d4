package storage

import (
	"errors"
	"fmt"
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

// TestCommitQueueBoundSheds pins the commit-pipeline backpressure path: with
// a negative CommitQueueBound every commit that reaches the group-commit
// writer sheds with ErrOverloaded — a pathological setting, but it makes the
// shed deterministic — and the shed transaction aborts cleanly, its writes
// never visible.
func TestCommitQueueBoundSheds(t *testing.T) {
	// The bound guards the group-commit WAL writer, so the database must be
	// durable (in-memory commits never enter the pipeline's submit queue).
	db, err := OpenDir(Options{DataDir: t.TempDir(), CommitQueueBound: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable(kvSchema("kv")); err != nil {
		t.Fatal(err)
	}
	tx := db.BeginDefault()
	if _, _, err := tx.Insert("kv", map[string]Value{"key": Str("a")}); err != nil {
		t.Fatal(err)
	}
	err = tx.Commit()
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("expected commit-queue shed, got %v", err)
	}
	reader := db.Begin(SnapshotIsolation)
	if n := scanCount(reader, "kv", nil); n != 0 {
		t.Fatalf("shed commit left %d rows visible", n)
	}
	reader.Rollback()
}

// TestCommitQueueBoundAllowsWithinBound: each committer has at most one
// record in the writer queue, so a bound as large as the number of concurrent
// committers can never shed, however the batches fall; once they finish the
// queue-depth gauge is back at zero.
func TestCommitQueueBoundAllowsWithinBound(t *testing.T) {
	const committers, perCommitter = 8, 10
	db, err := OpenDir(Options{DataDir: t.TempDir(), CommitQueueBound: committers})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable(kvSchema("kv")); err != nil {
		t.Fatal(err)
	}
	sheds := mCommitSheds.Value()
	var wg sync.WaitGroup
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCommitter; i++ {
				tx := db.BeginDefault()
				if _, _, err := tx.Insert("kv", map[string]Value{"key": Str(fmt.Sprintf("c%d-%d", c, i))}); err != nil {
					t.Error(err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("committer %d commit %d under bound failed: %v", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if got := mCommitSheds.Value() - sheds; got != 0 {
		t.Errorf("%d commits shed under a bound of %d committers", got, committers)
	}
	if d := mCommitQueueDepth.Value(); d != 0 {
		t.Errorf("queue-depth gauge reads %d after every commit returned", d)
	}
	reader := db.Begin(SnapshotIsolation)
	if n := scanCount(reader, "kv", nil); n != committers*perCommitter {
		t.Fatalf("expected %d rows, got %d", committers*perCommitter, n)
	}
	reader.Rollback()
}
