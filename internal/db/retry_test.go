package db

import (
	"context"
	"errors"
	"testing"
	"time"

	"feralcc/internal/storage"
)

// flakyConn fails every Exec with a fixed error until fails hits zero, then
// succeeds. It implements just enough of Conn for the retry loop.
type flakyConn struct {
	fails    int
	err      error
	attempts int
}

func (f *flakyConn) Exec(sql string, args ...storage.Value) (*Result, error) {
	f.attempts++
	if f.fails > 0 {
		f.fails--
		return nil, f.err
	}
	return &Result{}, nil
}

func (f *flakyConn) ExecContext(ctx context.Context, sql string, args ...storage.Value) (*Result, error) {
	return f.Exec(sql, args...)
}

func (f *flakyConn) Prepare(sql string) (Stmt, error) { return nil, errors.New("not implemented") }
func (f *flakyConn) Close() error                     { return nil }

// TestReliableRetriesThrough: a Reliable connection re-attempts a retryable
// failure until it succeeds, and each re-attempt counts in
// feraldb_db_retries_total.
func TestReliableRetriesThrough(t *testing.T) {
	f := &flakyConn{fails: 3, err: storage.ErrSerialization}
	conn := Reliable(f, RetryPolicy{MaxRetries: 5, BaseDelay: time.Microsecond, Seed: 9})
	retries := mRetries.Value()
	if _, err := conn.Exec("UPDATE t SET x = 1"); err != nil {
		t.Fatalf("three serialization aborts within five retries must succeed: %v", err)
	}
	if f.attempts != 4 {
		t.Fatalf("expected 4 attempts (1 + 3 retries), got %d", f.attempts)
	}
	if got := mRetries.Value() - retries; got != 3 {
		t.Fatalf("db_retries_total moved by %d, want 3", got)
	}
}

// TestFullJitterBackoffWithinWindow pins the backoff distribution contract:
// every draw lands in (window/16, window], where the window grows
// exponentially from BaseDelay and caps at MaxDelay; and the draw is a pure
// function of (Seed, attempt).
func TestFullJitterBackoffWithinWindow(t *testing.T) {
	p := RetryPolicy{MaxRetries: 10, BaseDelay: 2 * time.Millisecond, MaxDelay: 64 * time.Millisecond, Seed: 7}
	window := p.BaseDelay
	for attempt := 1; attempt <= 10; attempt++ {
		d := p.Backoff(attempt)
		if d < window/16 || d > window {
			t.Errorf("attempt %d: backoff %v outside (%v, %v]", attempt, d, window/16, window)
		}
		if d2 := p.Backoff(attempt); d2 != d {
			t.Errorf("attempt %d: backoff not deterministic: %v vs %v", attempt, d, d2)
		}
		if window < p.MaxDelay {
			window *= 2
			if window > p.MaxDelay {
				window = p.MaxDelay
			}
		}
	}
	// Different seeds must not all agree (full jitter, not a fixed ladder).
	q := p
	q.Seed = 8
	same := true
	for attempt := 1; attempt <= 10; attempt++ {
		if p.Backoff(attempt) != q.Backoff(attempt) {
			same = false
		}
	}
	if same {
		t.Error("two seeds produced identical backoff sequences")
	}
}

// TestBackoffForFlooredByRetryAfterHint: a shed's retry-after hint is the
// server saying "not before then"; the client's sleep must respect it.
func TestBackoffForFlooredByRetryAfterHint(t *testing.T) {
	p := RetryPolicy{MaxRetries: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Seed: 1}
	err := &storage.OverloadError{Reason: "test", RetryAfter: 250 * time.Millisecond}
	if d := p.BackoffFor(1, err); d < 250*time.Millisecond {
		t.Errorf("backoff %v ignored the 250ms retry-after hint", d)
	}
	// Without a hint the jittered draw stands.
	if d := p.BackoffFor(1, storage.ErrSerialization); d > 4*time.Millisecond {
		t.Errorf("hintless backoff %v exceeded the window", d)
	}
}

// TestRetryNeverOutlivesDeadline: an attempt whose backoff sleep exceeds the
// remaining context budget is never started — the caller gets the real error
// promptly instead of a guaranteed deadline expiry later.
func TestRetryNeverOutlivesDeadline(t *testing.T) {
	f := &flakyConn{fails: 100, err: storage.ErrSerialization}
	conn := Reliable(f, RetryPolicy{MaxRetries: 10, BaseDelay: time.Second, MaxDelay: time.Second, Seed: 3})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := conn.ExecContext(ctx, "UPDATE t SET x = 1")
	if !errors.Is(err, storage.ErrSerialization) {
		t.Fatalf("expected the real error to surface, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("retry loop slept past the deadline: %v", elapsed)
	}
	if f.attempts != 1 {
		t.Fatalf("expected exactly 1 attempt (backoff > remaining budget), got %d", f.attempts)
	}
}
