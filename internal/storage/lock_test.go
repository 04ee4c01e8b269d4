package storage

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestLockCompatibilityMatrix(t *testing.T) {
	// IS is compatible with everything but X; IX with IS/IX; S with IS/S;
	// X with nothing.
	type pair struct{ a, b LockMode }
	compatible := []pair{
		{LockIS, LockIS}, {LockIS, LockIX}, {LockIS, LockS},
		{LockIX, LockIX}, {LockS, LockS},
	}
	incompatible := []pair{
		{LockIS, LockX}, {LockIX, LockS}, {LockIX, LockX},
		{LockS, LockX}, {LockX, LockX},
	}
	for _, p := range compatible {
		if !lockCompatible[p.a][p.b] || !lockCompatible[p.b][p.a] {
			t.Errorf("%v/%v should be compatible", p.a, p.b)
		}
	}
	for _, p := range incompatible {
		if lockCompatible[p.a][p.b] || lockCompatible[p.b][p.a] {
			t.Errorf("%v/%v should conflict", p.a, p.b)
		}
	}
}

func TestLockSharedConcurrent(t *testing.T) {
	lm := newLockManager(time.Second, 0, nil)
	if err := lm.Acquire(1, "k", LockS); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(2, "k", LockS); err != nil {
		t.Fatalf("second shared lock should not block: %v", err)
	}
	lm.ReleaseAll(1)
	lm.ReleaseAll(2)
}

func TestLockExclusiveBlocksAndTimesOut(t *testing.T) {
	lm := newLockManager(50*time.Millisecond, 0, nil)
	if err := lm.Acquire(1, "k", LockX); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(2, "k", LockX); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("expected timeout, got %v", err)
	}
	lm.ReleaseAll(1)
	if err := lm.Acquire(2, "k", LockX); err != nil {
		t.Fatalf("lock should be free after release: %v", err)
	}
}

func TestLockWaiterWokenOnRelease(t *testing.T) {
	lm := newLockManager(5*time.Second, 0, nil)
	if err := lm.Acquire(1, "k", LockX); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- lm.Acquire(2, "k", LockX) }()
	time.Sleep(20 * time.Millisecond)
	lm.ReleaseAll(1)
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("waiter should have been granted: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never woke")
	}
}

func TestLockReentrantAndUpgrade(t *testing.T) {
	lm := newLockManager(50*time.Millisecond, 0, nil)
	if err := lm.Acquire(1, "k", LockS); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(1, "k", LockS); err != nil {
		t.Fatalf("re-acquire of held mode must not block: %v", err)
	}
	if err := lm.Acquire(1, "k", LockX); err != nil {
		t.Fatalf("sole holder should upgrade S->X: %v", err)
	}
	if !lm.Holds(1, "k", LockX) {
		t.Fatal("upgrade not recorded")
	}
	// X subsumes S.
	if err := lm.Acquire(1, "k", LockS); err != nil {
		t.Fatalf("subsumed re-acquire failed: %v", err)
	}
}

func TestLockUpgradeContention(t *testing.T) {
	lm := newLockManager(50*time.Millisecond, 0, nil)
	_ = lm.Acquire(1, "k", LockS)
	_ = lm.Acquire(2, "k", LockS)
	// Neither can upgrade while the other holds S: classic upgrade deadlock,
	// resolved by timeout.
	if err := lm.Acquire(1, "k", LockX); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("upgrade against concurrent S should time out, got %v", err)
	}
}

func TestLockIntentModes(t *testing.T) {
	lm := newLockManager(30*time.Millisecond, 0, nil)
	_ = lm.Acquire(1, "t", LockIX)
	if err := lm.Acquire(2, "t", LockIX); err != nil {
		t.Fatalf("IX/IX should be compatible: %v", err)
	}
	if err := lm.Acquire(3, "t", LockS); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("S should conflict with IX: %v", err)
	}
	lm.ReleaseAll(1)
	lm.ReleaseAll(2)
	if err := lm.Acquire(3, "t", LockS); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(4, "t", LockIS); err != nil {
		t.Fatalf("IS should be compatible with S: %v", err)
	}
}

func TestLockFIFOFairness(t *testing.T) {
	lm := newLockManager(5*time.Second, 0, nil)
	_ = lm.Acquire(1, "k", LockX)
	order := make(chan uint64, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_ = lm.Acquire(2, "k", LockX)
		order <- 2
		lm.ReleaseAll(2)
	}()
	time.Sleep(30 * time.Millisecond) // ensure 2 queues first
	go func() {
		defer wg.Done()
		_ = lm.Acquire(3, "k", LockX)
		order <- 3
		lm.ReleaseAll(3)
	}()
	time.Sleep(30 * time.Millisecond)
	lm.ReleaseAll(1)
	wg.Wait()
	first, second := <-order, <-order
	if first != 2 || second != 3 {
		t.Fatalf("grants out of FIFO order: %d then %d", first, second)
	}
}

func TestLockNewRequestQueuesBehindWaiters(t *testing.T) {
	lm := newLockManager(5*time.Second, 0, nil)
	_ = lm.Acquire(1, "k", LockS)
	// Writer queues.
	writerDone := make(chan struct{})
	go func() {
		_ = lm.Acquire(2, "k", LockX)
		close(writerDone)
	}()
	time.Sleep(20 * time.Millisecond)
	// A new shared request must not starve the queued writer by sneaking in.
	readerDone := make(chan struct{})
	go func() {
		_ = lm.Acquire(3, "k", LockS)
		close(readerDone)
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-readerDone:
		t.Fatal("new reader jumped the queue over a waiting writer")
	default:
	}
	lm.ReleaseAll(1)
	<-writerDone
	lm.ReleaseAll(2)
	<-readerDone
	lm.ReleaseAll(3)
}

// TestLockUpgradeBehindQueuedWaiter pins the contended upgrade: a sole S
// holder upgrading to X behind a queued X waiter heads the queue and is
// grantable, so it must be granted at once, not after the waiter's timeout
// (which also failed the waiter with a spurious ErrLockTimeout).
func TestLockUpgradeBehindQueuedWaiter(t *testing.T) {
	lm := newLockManager(500*time.Millisecond, 0, nil)
	if err := lm.Acquire(1, "k", LockS); err != nil {
		t.Fatal(err)
	}
	waiter := acquireAsync(lm, 2, "k", LockX)
	for queued := 0; queued == 0; {
		lm.mu.Lock()
		queued = len(lm.entries["k"].queue)
		lm.mu.Unlock()
		runtime.Gosched()
	}
	start := time.Now()
	if err := lm.Acquire(1, "k", LockX); err != nil {
		t.Fatalf("upgrade failed: %v", err)
	}
	if waited := time.Since(start); waited > 100*time.Millisecond {
		t.Fatalf("upgrade took %v; a grantable upgrade at the queue head must not wait", waited)
	}
	select {
	case err := <-waiter:
		t.Fatalf("queued X waiter returned %v while the upgraded holder holds X", err)
	default:
	}
	lm.ReleaseAll(1)
	if err := <-waiter; err != nil {
		t.Fatalf("queued waiter should be granted once the holder releases: %v", err)
	}
	lm.ReleaseAll(2)
}

// gateYielder is a Yielder whose Park blocks until the test answers it: each
// Park hands the test a fresh wake channel and returns what the test sends on
// it. The test thereby decides which parked waiter wakes, in which order, and
// whether it wakes as a deadlock victim, with no sleeps.
type gateYielder struct{ parks chan chan error }

func (y *gateYielder) Yield(string)        {}
func (y *gateYielder) ParkExternal(string) {}
func (y *gateYielder) Park(string, bool) error {
	wake := make(chan error)
	y.parks <- wake
	return <-wake
}

// parked returns the wake channel of the next Park, failing the test if the
// waiter whose result arrives on res returns instead of parking.
func (y *gateYielder) parked(t *testing.T, res <-chan error) chan<- error {
	t.Helper()
	select {
	case wake := <-y.parks:
		return wake
	case err := <-res:
		t.Fatalf("waiter returned %v instead of parking", err)
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never parked")
	}
	return nil
}

func acquireAsync(lm *lockManager, owner uint64, key string, mode LockMode) <-chan error {
	res := make(chan error, 1)
	go func() { res <- lm.Acquire(owner, key, mode) }()
	return res
}

// TestLockSchedGrantsInQueueOrder drives the scheduler's wait: after the
// holder releases, the first-queued waiter holds the lock even when the
// second is woken first, and a waiter nominated as deadlock victim leaves the
// queue with ErrLockTimeout, exactly as a timed-out one does.
func TestLockSchedGrantsInQueueOrder(t *testing.T) {
	y := &gateYielder{parks: make(chan chan error)}
	lm := newLockManager(time.Second, 0, y)
	if err := lm.Acquire(1, "k", LockX); err != nil {
		t.Fatal(err)
	}
	first := acquireAsync(lm, 2, "k", LockX)
	wakeFirst := y.parked(t, first)
	second := acquireAsync(lm, 3, "k", LockX)
	wakeSecond := y.parked(t, second)
	lm.ReleaseAll(1)
	wakeSecond <- nil
	wakeSecond = y.parked(t, second)
	wakeFirst <- nil
	if err := <-first; err != nil {
		t.Fatalf("first-queued waiter: %v", err)
	}
	if !lm.Holds(2, "k", LockX) || lm.Holds(3, "k", LockX) {
		t.Fatal("lock not granted to the first-queued waiter alone")
	}
	wakeSecond <- errors.New("deadlock victim")
	if err := <-second; !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("victim's acquire = %v, want ErrLockTimeout", err)
	}
	lm.ReleaseAll(2)
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if n := len(lm.entries); n != 0 {
		t.Fatalf("abandoned waiter left %d entries behind", n)
	}
}

// TestLockSchedNoBargingPastParkedWaiter: under the scheduler, as in
// production, a new S request compatible with the S holder still queues
// behind a parked X waiter instead of starving it.
func TestLockSchedNoBargingPastParkedWaiter(t *testing.T) {
	y := &gateYielder{parks: make(chan chan error)}
	lm := newLockManager(time.Second, 0, y)
	if err := lm.Acquire(1, "k", LockS); err != nil {
		t.Fatal(err)
	}
	writer := acquireAsync(lm, 2, "k", LockX)
	wakeWriter := y.parked(t, writer)
	reader := acquireAsync(lm, 3, "k", LockS)
	wakeReader := y.parked(t, reader)
	lm.ReleaseAll(1)
	wakeWriter <- nil
	if err := <-writer; err != nil {
		t.Fatalf("parked X waiter: %v", err)
	}
	lm.ReleaseAll(2)
	wakeReader <- nil
	if err := <-reader; err != nil {
		t.Fatalf("queued S request: %v", err)
	}
	if !lm.Holds(3, "k", LockS) {
		t.Fatal("S request not granted after the writer released")
	}
	lm.ReleaseAll(3)
}

func TestLockCombineModes(t *testing.T) {
	cases := []struct{ a, b, want LockMode }{
		{LockIS, LockIX, LockIX},
		{LockS, LockIX, LockX},
		{LockS, LockIS, LockS},
		{LockX, LockS, LockX},
		{LockIS, LockIS, LockIS},
	}
	for _, c := range cases {
		if got := combineLockModes(c.a, c.b); got != c.want {
			t.Errorf("combine(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestLockManagerCleansUpEntries(t *testing.T) {
	lm := newLockManager(time.Second, 0, nil)
	_ = lm.Acquire(1, "a", LockX)
	_ = lm.Acquire(1, "b", LockS)
	lm.ReleaseAll(1)
	lm.mu.Lock()
	n := len(lm.entries)
	lm.mu.Unlock()
	if n != 0 {
		t.Fatalf("entries not cleaned up: %d remain", n)
	}
}

func TestLockKeysDistinct(t *testing.T) {
	if rowLockKey("t", 1) == rowLockKey("t", 11) {
		t.Error("row lock keys collide")
	}
	if predLockKey("t", "c", "v") == tableLockKey("t") {
		t.Error("predicate and table lock keys collide")
	}
	if rowLockKey("a", 1) == rowLockKey("b", 1) {
		t.Error("row keys must include table")
	}
}
