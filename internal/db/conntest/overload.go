package conntest

import (
	"errors"
	"testing"
	"time"

	"feralcc/internal/db"
	"feralcc/internal/histcheck"
	"feralcc/internal/obs"
	"feralcc/internal/storage"
)

// OverloadFactory provisions a fresh database opened with the given options
// (the suite passes bounded-queue settings) plus history recording. connect
// opens a new connection to that database; capture snapshots its history.
type OverloadFactory func(t *testing.T, opts storage.Options) (connect func() db.Conn, capture func() []histcheck.Event)

// RunOverload is the shared contract suite for overload-shed semantics,
// exercised against both the embedded connection (internal/db) and the wire
// client (internal/wire). The contract: a shed surfaces as an error that
// errors.Is-matches storage.ErrOverloaded, classifies retryable and
// transient, carries a positive retry-after hint — identically on both
// seams — and leaves no trace in the database, which the history checker
// verifies as the absence of G1a (no committed transaction ever observes a
// shed statement's effects, because a shed statement has none). The
// transaction a failed statement aborts counts under the failure's reason in
// feraldb_storage_aborts_total: a shed as overload, a lock timeout as
// deadlock; only an explicit ROLLBACK counts as rollback.
func RunOverload(t *testing.T, factory OverloadFactory) {
	// A negative LockQueueBound forbids lock waiting entirely: any acquire
	// that would block sheds immediately, which makes the contended schedule
	// below deterministic without sleeps or timing assumptions.
	opts := storage.Options{LockQueueBound: -1, RecordHistory: true}

	t.Run("ShedClassification", func(t *testing.T) {
		connect, _ := factory(t, opts)
		a, b := connect(), connect()
		defer a.Close()
		defer b.Close()
		mustExec(t, a, "CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT, value TEXT)")
		mustExec(t, a, "INSERT INTO kv (key, value) VALUES ('k', 'original')")

		// a holds the row's exclusive lock in an open transaction; b's
		// update would have to queue, and the bound says queues are full.
		mustExec(t, a, "BEGIN")
		mustExec(t, a, "UPDATE kv SET value = 'held' WHERE key = 'k'")
		aborts := readAborts()
		_, err := b.Exec("UPDATE kv SET value = 'intruder' WHERE key = 'k'")
		if err == nil {
			t.Fatal("contended update with a full lock queue must shed")
		}
		aborts.expect(t, map[string]uint64{"overload": 1})
		if !errors.Is(err, storage.ErrOverloaded) {
			t.Fatalf("shed must match storage.ErrOverloaded, got %v", err)
		}
		if !db.Retryable(err) {
			t.Fatalf("shed must classify retryable (after backoff), got %v", err)
		}
		if !db.Transient(err) {
			t.Fatalf("shed must classify transient, got %v", err)
		}
		hint, ok := db.RetryAfter(err)
		if !ok || hint <= 0 {
			t.Fatalf("shed must carry a positive retry-after hint, got %v ok=%v", hint, ok)
		}

		// Retryable-after-backoff means exactly this: once the contention is
		// gone, the same statement on the same connection succeeds.
		mustExec(t, a, "COMMIT")
		mustExec(t, b, "UPDATE kv SET value = 'second-try' WHERE key = 'k'")
	})

	t.Run("ShedLeavesNoTrace", func(t *testing.T) {
		connect, capture := factory(t, opts)
		a, b := connect(), connect()
		defer a.Close()
		defer b.Close()
		mustExec(t, a, "CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT, value TEXT)")
		mustExec(t, a, "INSERT INTO kv (key, value) VALUES ('k', 'original')")

		mustExec(t, a, "BEGIN")
		mustExec(t, a, "UPDATE kv SET value = 'winner' WHERE key = 'k'")
		// b's shed statement aborts b's transaction; nothing it attempted
		// may ever become visible.
		mustExec(t, b, "BEGIN")
		if _, err := b.Exec("UPDATE kv SET value = 'phantom' WHERE key = 'k'"); !errors.Is(err, storage.ErrOverloaded) {
			t.Fatalf("expected shed, got %v", err)
		}
		b.Exec("ROLLBACK")
		mustExec(t, a, "COMMIT")

		res, err := b.Exec("SELECT value FROM kv WHERE key = 'k'")
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].S; got != "winner" {
			t.Fatalf("shed statement left a trace: value = %q", got)
		}

		rep := histcheck.Check(capture())
		if rep.Has(histcheck.G1a) {
			t.Fatalf("shed produced an aborted read (G1a):\n%s", rep)
		}
		if !rep.Pass() {
			t.Fatalf("history with sheds must check clean:\n%s", rep)
		}
	})

	// A lock wait that times out fails its statement with ErrLockTimeout,
	// the engine's deadlock verdict, and the transaction the failure aborts
	// counts as a deadlock, in autocommit and inside an explicit transaction.
	t.Run("LockTimeoutCountsAsDeadlock", func(t *testing.T) {
		connect, _ := factory(t, storage.Options{LockTimeout: 20 * time.Millisecond})
		a, b := connect(), connect()
		defer a.Close()
		defer b.Close()
		mustExec(t, a, "CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT, value TEXT)")
		mustExec(t, a, "INSERT INTO kv (key, value) VALUES ('k', 'original')")

		mustExec(t, a, "BEGIN")
		mustExec(t, a, "UPDATE kv SET value = 'held' WHERE key = 'k'")
		aborts := readAborts()
		waits, timeouts, waited := lockCounts()
		if _, err := b.Exec("UPDATE kv SET value = 'waiter' WHERE key = 'k'"); !errors.Is(err, storage.ErrLockTimeout) {
			t.Fatalf("update behind a held row lock: want ErrLockTimeout, got %v", err)
		}
		mustExec(t, b, "BEGIN")
		if _, err := b.Exec("UPDATE kv SET value = 'waiter' WHERE key = 'k'"); !errors.Is(err, storage.ErrLockTimeout) {
			t.Fatalf("update behind a held row lock in a transaction: want ErrLockTimeout, got %v", err)
		}
		aborts.expect(t, map[string]uint64{"deadlock": 2})
		w, to, wd := lockCounts()
		if w-waits != 2 || to-timeouts != 2 || wd-waited != 2 {
			t.Errorf("two timed-out lock waits moved lock_waits_total by %d, lock_timeouts_total by %d, lock_wait_seconds_count by %d; want 2 each",
				w-waits, to-timeouts, wd-waited)
		}

		aborts = readAborts()
		mustExec(t, a, "ROLLBACK")
		aborts.expect(t, map[string]uint64{"rollback": 1})
	})
}

// lockCounts reads the lock manager's wait and timeout counters and the
// number of waits the wait-time histogram has observed.
func lockCounts() (waits, timeouts, waited uint64) {
	r := obs.Default()
	h, _ := r.HistogramSnapshot("feraldb_storage_lock_wait_seconds")
	return r.CounterValue("feraldb_storage_lock_waits_total"), r.CounterValue("feraldb_storage_lock_timeouts_total"), h.Count
}

// abortReasons are the label values of feraldb_storage_aborts_total.
var abortReasons = []string{"serialization", "unique", "foreign_key", "deadlock",
	"deadline", "wal", "rollback", "other", "overload"}

// abortCounts is a reading of feraldb_storage_aborts_total, by reason.
type abortCounts map[string]uint64

func readAborts() abortCounts {
	c := abortCounts{}
	for _, r := range abortReasons {
		c[r] = obs.Default().CounterValue(`feraldb_storage_aborts_total{reason="` + r + `"}`)
	}
	return c
}

// expect fails t unless every reason moved since c by exactly want's delta
// (absent reasons by zero).
func (c abortCounts) expect(t *testing.T, want map[string]uint64) {
	t.Helper()
	for r, now := range readAborts() {
		if got := now - c[r]; got != want[r] {
			t.Errorf(`aborts_total{reason=%q} moved by %d, want %d`, r, got, want[r])
		}
	}
}
