package storage

import (
	"errors"
	"fmt"
	"time"
)

// ErrOverloaded reports that the engine shed work at a bounded queue instead
// of letting it wait: the lock-wait queue was full (see
// Options.LockQueueBound), or an upstream admission controller refused the
// request. Shedding converts
// unbounded queueing latency into an immediate, explicitly retryable
// failure — the caller should back off for at least the attached hint and
// try again (retryable-after-backoff in the db package's taxonomy). Nothing
// was executed on the shed path, so retrying is always safe.
var ErrOverloaded = errors.New("storage: overloaded, retry after backoff")

// OverloadError is the concrete shed verdict: which queue refused the work
// and how long the caller should wait before retrying. It unwraps to
// ErrOverloaded (match with errors.Is) and self-classifies as retryable, so
// db.Retryable and db.Reliable treat sheds exactly like serialization aborts
// — except that the retry-after hint floors the backoff.
type OverloadError struct {
	// Reason names the queue or controller that shed the work
	// (e.g. "lock wait queue full", "admission").
	Reason string
	// RetryAfter is the server's backoff hint. Advisory: retrying sooner is
	// not an error, just likely to be shed again.
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("%v: %s (retry after %v)", ErrOverloaded, e.Reason, e.RetryAfter)
}

// Unwrap makes errors.Is(err, ErrOverloaded) true.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// Retryable marks sheds retryable-after-backoff: the work never executed.
func (e *OverloadError) Retryable() bool { return true }

// RetryAfterHint exposes the hint through the db package's RetryAfter helper
// without that package depending on this concrete type.
func (e *OverloadError) RetryAfterHint() time.Duration { return e.RetryAfter }

// overloadRetryAfter clamps a raw shed hint into a sane advisory range:
// at least one millisecond (so budget-driven backoff never spins) and at
// most 100ms (a shed is a momentary condition, not an outage).
func overloadRetryAfter(d time.Duration) time.Duration {
	const lo, hi = time.Millisecond, 100 * time.Millisecond
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}
