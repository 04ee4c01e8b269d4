package wire

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"feralcc/internal/db"
	"feralcc/internal/storage"
)

// startServerWith is startServer with a configuration hook applied before
// the server begins accepting.
func startServerWith(t *testing.T, store *storage.Database, tune func(*Server)) string {
	t.Helper()
	srv := NewServer(store, nil)
	tune(srv)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	return srv.Addr()
}

// TestMaxConnsRejectsGracefully pins accept-time admission: with max-conns
// reached, a new connection gets a decodable CodeOverloaded response — an
// error that classifies retryable with a retry-after hint — not a silent
// hangup; and once a slot frees, dialing works again.
func TestMaxConnsRejectsGracefully(t *testing.T) {
	store := storage.Open(storage.Options{})
	addr := startServerWith(t, store, func(s *Server) { s.SetMaxConns(1) })
	rejected := mConnsRejected.Value()

	first := dialT(t, addr)
	if _, err := first.Exec("CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT)"); err != nil {
		t.Fatal(err)
	}

	// The second connection dials fine at TCP level but its first round
	// trip must surface the rejection.
	second, err := Dial(addr)
	if err != nil {
		t.Fatalf("TCP dial should succeed; rejection is a protocol frame: %v", err)
	}
	defer second.Close()
	_, err = second.Exec("SELECT COUNT(*) FROM kv")
	if !errors.Is(err, storage.ErrOverloaded) {
		t.Fatalf("rejected connection must yield ErrOverloaded, got %v", err)
	}
	if !db.Retryable(err) {
		t.Fatalf("connection rejection must classify retryable, got %v", err)
	}
	if hint, ok := db.RetryAfter(err); !ok || hint <= 0 {
		t.Fatalf("rejection must carry a retry-after hint, got %v ok=%v", hint, ok)
	}
	if got := mConnsRejected.Value() - rejected; got != 1 {
		t.Fatalf("connections_rejected_total moved by %d, want 1", got)
	}

	// Free the slot; a fresh dial is served normally.
	first.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		c, err := Dial(addr)
		if err == nil {
			if _, err = c.Exec("SELECT COUNT(*) FROM kv"); err == nil {
				c.Close()
				break
			}
			c.Close()
		}
		if time.Now().After(deadline) {
			t.Fatalf("server did not recover a connection slot: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAdmissionShedsAtFullQueue pins statement-level admission: one slot,
// zero queue — while a slow statement holds the slot, a concurrent statement
// sheds with CodeOverloaded rather than waiting, and the shed classifies
// identically to an engine shed.
func TestAdmissionShedsAtFullQueue(t *testing.T) {
	store := storage.Open(storage.Options{LockTimeout: 250 * time.Millisecond})
	addr := startServerWith(t, store, func(s *Server) { s.SetAdmission(1, 0) })

	setup := dialT(t, addr)
	if _, err := setup.Exec("CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT)"); err != nil {
		t.Fatal(err)
	}

	// Hold the single admission slot with an engine-side lock wait: conn A
	// keeps a row lock, conn B's update parks inside the executor with the
	// slot held.
	if _, err := setup.Exec("INSERT INTO kv (key) VALUES ('k')"); err != nil {
		t.Fatal(err)
	}
	holder := dialT(t, addr)
	if _, err := holder.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := holder.Exec("UPDATE kv SET key = 'held' WHERE id = 1"); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	blocked := dialT(t, addr)
	go func() {
		defer wg.Done()
		// Parks on the row lock while occupying the admission slot. It is
		// itself shed if it arrives while a probe below holds the slot, so it
		// retries until admitted.
		for {
			_, err := blocked.Exec("UPDATE kv SET key = 'blocked' WHERE id = 1")
			if !errors.Is(err, storage.ErrOverloaded) {
				return
			}
		}
	}()

	// Wait until the blocked statement actually holds the slot.
	sheds := mShedQueueFull.Value()
	shedder := dialT(t, addr)
	deadline := time.Now().Add(2 * time.Second)
	var err error
	for {
		_, err = shedder.Exec("SELECT COUNT(*) FROM kv")
		if err != nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !errors.Is(err, storage.ErrOverloaded) {
		t.Fatalf("expected admission shed with the slot held, got %v", err)
	}
	if !db.Retryable(err) || !db.Transient(err) {
		t.Fatalf("admission shed must classify retryable and transient: %v", err)
	}
	if mShedQueueFull.Value() == sheds {
		t.Fatal(`admission_sheds_total{reason="queue_full"} did not move`)
	}

	// The parked statement eventually loses its lock wait (LockTimeout) and
	// frees the slot — only then can the holder's COMMIT be admitted. (That
	// ordering is itself the bound's semantics: with zero queue, even a
	// COMMIT sheds while the slot is taken.)
	wg.Wait()
	if _, err := holder.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(2 * time.Second)
	for {
		if _, err = shedder.Exec("SELECT COUNT(*) FROM kv"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admission did not recover: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAdmissionCountsShedsByReason: a shed counts under the reason
// ShedVerdict gave, so an operator can tell a full queue from work whose
// deadline the estimated wait already exceeds.
func TestAdmissionCountsShedsByReason(t *testing.T) {
	a := newAdmission(1, 1)
	if err := a.acquire(0); err != nil {
		t.Fatal(err)
	}
	full, doomed := mShedQueueFull.Value(), mShedDoomed.Value()
	// With the slot taken, the estimated wait (1ms before any statement has
	// completed) exceeds a 1µs budget.
	if err := a.acquire(time.Microsecond); !errors.Is(err, storage.ErrOverloaded) {
		t.Fatalf("doomed statement: want a shed, got %v", err)
	}
	atomic.StoreInt64(&a.queued, 1)
	if err := a.acquire(0); !errors.Is(err, storage.ErrOverloaded) {
		t.Fatalf("statement at a full queue: want a shed, got %v", err)
	}
	if got := mShedDoomed.Value() - doomed; got != 1 {
		t.Errorf(`admission_sheds_total{reason="deadline_doomed"} moved by %d, want 1`, got)
	}
	if got := mShedQueueFull.Value() - full; got != 1 {
		t.Errorf(`admission_sheds_total{reason="queue_full"} moved by %d, want 1`, got)
	}
}

// TestShedVerdict pins the pure decision function the simulator replays.
func TestShedVerdict(t *testing.T) {
	if shed, _ := ShedVerdict(0, 4, time.Millisecond, time.Second); shed {
		t.Error("space in queue and time in budget must not shed")
	}
	if shed, reason := ShedVerdict(4, 4, time.Millisecond, time.Second); !shed || reason != "queue full" {
		t.Errorf("full queue must shed: %v %q", shed, reason)
	}
	if shed, reason := ShedVerdict(1, 4, 2*time.Second, time.Second); !shed || reason != "deadline doomed" {
		t.Errorf("doomed work must shed even with queue space: %v %q", shed, reason)
	}
	if shed, _ := ShedVerdict(1, 4, 2*time.Second, 0); shed {
		t.Error("unbounded deadline can never be doomed")
	}
}
