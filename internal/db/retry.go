// Error taxonomy and automatic retry.
//
// The engine's failure modes split into three classes, and everything above
// this package (the ORM's transaction wrapper, the wire client's redial
// logic, the benchmark drivers) keys off that classification rather than
// string-matching errors:
//
//   - Retryable: the operation failed for a reason that a fresh attempt can
//     cure — a serialization abort (first-committer-wins or SSI
//     certification), a lock-wait timeout (the engine's deadlock verdict,
//     which picks a victim exactly so the survivor can proceed), or a
//     dropped connection detected before the statement reached the
//     executor. These are the errors the paper's Rails applications wrap
//     in ad-hoc retry loops; here the loop is systematic.
//   - Transient: retryable errors plus timeouts and cancellations. A
//     transient error says nothing is wrong with the request itself, only
//     with the moment it was made. Deadline expiry is transient but NOT
//     retryable: the caller's budget is spent, and retrying on their
//     behalf would overshoot it.
//   - Everything else (constraint violations, parse errors, missing
//     tables): permanent, surfaced unchanged.
//
// Overload sheds (storage.ErrOverloaded) are a refinement of Retryable:
// retryable-after-backoff. The work never ran, so a fresh attempt is safe,
// but the failure is a load signal, not a race — retrying immediately feeds
// the overload. Shed errors therefore carry a retry-after hint (extract it
// with RetryAfter) that floors the backoff sleep.
package db

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"feralcc/internal/obs"
	"feralcc/internal/storage"
)

// mRetries counts automatic re-attempts across every Reliable connection in
// the process, mirroring the per-connection RetryStats into the scrape.
var mRetries = obs.NewCounter(obs.Default(),
	"feraldb_db_retries_total", "Automatic statement/transaction retries by Reliable connections")

// ErrConnDropped reports that the connection to the database was lost (or
// deliberately severed by fault injection) before the statement's outcome
// was known to be applied. The wire client returns it wrapped around the
// underlying I/O error; it is retryable because the client only reports it
// for failures on the request path, where the statement cannot have
// executed.
var ErrConnDropped = errors.New("db: connection dropped")

// retryabler is implemented by errors that carry their own retry verdict
// (fault-injection errors do, so injected faults classify without this
// package importing the injector).
type retryabler interface{ Retryable() bool }

// transienter is implemented by errors that self-report as transient.
type transienter interface{ Transient() bool }

// retryAfterer is implemented by errors carrying a backoff hint
// (storage.OverloadError does; wire reconstructs it across the protocol).
type retryAfterer interface{ RetryAfterHint() time.Duration }

// RetryAfter extracts the backoff hint from an overload-shed error. ok is
// false when err carries no hint (not every retryable error is a shed).
// Retry loops — automatic or hand-rolled — should sleep at least this long
// before the next attempt; it is the server saying "not before then".
func RetryAfter(err error) (hint time.Duration, ok bool) {
	var ra retryAfterer
	if errors.As(err, &ra) {
		return ra.RetryAfterHint(), true
	}
	return 0, false
}

// Retryable reports whether err is worth retrying on a fresh attempt:
// serialization failures, lock-wait timeouts (deadlock victims), dropped
// connections, and any error that itself implements Retryable() bool.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	var r retryabler
	if errors.As(err, &r) {
		return r.Retryable()
	}
	return errors.Is(err, storage.ErrSerialization) ||
		errors.Is(err, storage.ErrLockTimeout) ||
		errors.Is(err, ErrConnDropped)
}

// Transient reports whether err reflects the moment rather than the request:
// every retryable error, plus deadline expiry and cancellation. Callers use
// it to decide between "apologize and try later" (transient) and "fix the
// request" (permanent).
func Transient(err error) bool {
	if err == nil {
		return false
	}
	if Retryable(err) {
		return true
	}
	var t transienter
	if errors.As(err, &t) {
		return t.Transient()
	}
	return errors.Is(err, storage.ErrStmtDeadline) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled)
}

// RetryPolicy bounds an automatic retry loop: at most MaxRetries fresh
// attempts after the first, sleeping a capped exponential backoff with
// deterministic jitter between them. The zero value disables retries, so
// plumbing a policy through existing code changes nothing until one is set.
type RetryPolicy struct {
	// MaxRetries is the number of re-attempts after the initial try.
	MaxRetries int
	// BaseDelay is the backoff window before the first retry (default 1ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth of the window (default 50ms).
	MaxDelay time.Duration
	// Seed makes the jitter deterministic; two runs with the same seed make
	// identical sleep decisions, which the chaos tests rely on.
	Seed uint64
}

// Enabled reports whether the policy performs any retries.
func (p RetryPolicy) Enabled() bool { return p.MaxRetries > 0 }

// Backoff returns the sleep before retry attempt n (1-based): full-jitter
// exponential backoff — uniform over the window (0, min(MaxDelay,
// BaseDelay·2^(n-1))], drawn deterministically from Seed and n. Full jitter
// (sleep anywhere in the window, not clustered near its top) is what
// de-synchronizes a thundering herd of contending retriers: with ±50% jitter
// the herd re-collides inside a half-window; with full jitter arrivals
// spread across the whole window. The sleep is floored at 1/16 of the
// window so no draw degenerates into a hot loop.
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = time.Millisecond
	}
	maxd := p.MaxDelay
	if maxd <= 0 {
		maxd = 50 * time.Millisecond
	}
	d := base
	for i := 1; i < attempt && d < maxd; i++ {
		d *= 2
	}
	if d > maxd {
		d = maxd
	}
	u := splitmix64(p.Seed + uint64(attempt)*0x9e3779b97f4a7c15)
	frac := float64(u>>11) / (1 << 53)
	sleep := time.Duration(float64(d) * frac)
	if floor := d / 16; sleep < floor {
		sleep = floor
	}
	return sleep
}

// BackoffFor is Backoff floored by err's retry-after hint: when the server
// shed the work with "not before then", sleeping any less just gets shed
// again.
func (p RetryPolicy) BackoffFor(attempt int, err error) time.Duration {
	d := p.Backoff(attempt)
	if hint, ok := RetryAfter(err); ok && hint > d {
		d = hint
	}
	return d
}

// Next is the retry gate every retry loop shares. Retry attempt (1-based)
// follows a failure with err; Next reports whether to make it and the
// backoff to sleep first. The gates run in order: err must be retryable and
// the policy must have retries left; the backoff, floored by any
// retry-after hint, must fit in ctx's remaining deadline (a nil ctx has
// none), so an attempt that cannot start in time surfaces the real error
// instead of a guaranteed expiry.
func (p RetryPolicy) Next(ctx context.Context, attempt int, err error) (time.Duration, bool) {
	if !Retryable(err) || attempt > p.MaxRetries {
		return 0, false
	}
	backoff := p.BackoffFor(attempt, err)
	if !sleepAllowed(ctx, backoff) {
		return 0, false
	}
	return backoff, true
}

// sleepAllowed reports whether a backoff sleep of d fits inside ctx's
// remaining deadline. An attempt whose backoff alone would outlive the
// caller's budget is never started: the caller gets the last real error now
// instead of a guaranteed deadline expiry later.
func sleepAllowed(ctx context.Context, d time.Duration) bool {
	if ctx == nil {
		return true
	}
	if ctx.Err() != nil {
		return false
	}
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= d {
		return false
	}
	return true
}

// splitmix64 is the standard 64-bit mixer (public domain, Vigna); good
// avalanche from sequential inputs, which is exactly the jitter use case.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// RetryStats is implemented by connections that count their automatic
// retries (Reliable does); experiments read it to report retry volume
// alongside anomaly counts.
type RetryStats interface {
	// Retries returns the cumulative number of statement or transaction
	// re-attempts performed on behalf of the caller.
	Retries() uint64
}

// maxReplayLog bounds the number of statements recorded for transaction
// replay. A transaction that outgrows the log is still executed normally;
// it just loses replay-on-failure (the error surfaces to the caller, whose
// own retry loop — e.g. the ORM's — re-runs the whole transaction body).
const maxReplayLog = 256

// Reliable wraps a connection with automatic retry of retryable failures.
//
// Outside a transaction, a failed statement is simply re-executed. Inside an
// explicit transaction the failed statement cannot be retried alone — the
// engine (like PostgreSQL) aborts the whole transaction on a statement
// error — so the wrapper records every statement since BEGIN and, on a
// retryable failure, replays the transaction from the top. This is the
// client-side transaction-retry pattern the paper's subjects approximate by
// hand; the replay is only sound because retryable errors are, by
// construction, reported before the statement took effect (serialization
// aborts roll back the transaction, and the wire client classifies only
// request-path connection failures as dropped).
func Reliable(conn Conn, policy RetryPolicy) Conn {
	return &reliableConn{conn: conn, policy: policy}
}

type reliableConn struct {
	conn   Conn
	policy RetryPolicy

	// txLog records the statements of the open explicit transaction,
	// BEGIN included, for replay. nil when no transaction is open.
	txLog []loggedStmt
	// overflow marks a transaction too large to replay.
	overflow bool

	retries uint64 // atomic
}

type loggedStmt struct {
	sql  string
	args []storage.Value
}

// Retries implements RetryStats.
func (r *reliableConn) Retries() uint64 { return atomic.LoadUint64(&r.retries) }

// Unwrap exposes the underlying connection (for layered stats inspection).
func (r *reliableConn) Unwrap() Conn { return r.conn }

// Exec implements Conn.
func (r *reliableConn) Exec(sql string, args ...storage.Value) (*Result, error) {
	return r.exec(nil, sql, args)
}

// ExecContext implements Conn.
func (r *reliableConn) ExecContext(ctx context.Context, sql string, args ...storage.Value) (*Result, error) {
	return r.exec(ctx, sql, args)
}

// Prepare implements Conn. The plan is validated eagerly on the underlying
// connection so parse errors surface at Prepare time; execution then flows
// through the reliable path by statement text, which keeps replay logging
// and re-preparation after a reconnect in one place.
func (r *reliableConn) Prepare(sql string) (Stmt, error) {
	st, err := r.conn.Prepare(sql)
	// Preparing is read-only, so a retryable failure (a dropped connection,
	// an injected abort) is always safe to re-attempt.
	for attempt := 1; err != nil; attempt++ {
		backoff, ok := r.policy.Next(nil, attempt, err)
		if !ok {
			break
		}
		time.Sleep(backoff)
		atomic.AddUint64(&r.retries, 1)
		mRetries.Inc()
		st, err = r.conn.Prepare(sql)
	}
	if err != nil {
		return nil, err
	}
	// The handle itself is not executed through: close it immediately for
	// implementations that track open statements (the wire client does).
	st.Close()
	return &reliableStmt{conn: r, sql: sql}, nil
}

// Close implements Conn.
func (r *reliableConn) Close() error {
	r.txLog, r.overflow = nil, false
	return r.conn.Close()
}

type reliableStmt struct {
	conn   *reliableConn
	sql    string
	closed bool
}

// Exec implements Stmt.
func (st *reliableStmt) Exec(args ...storage.Value) (*Result, error) {
	if st.closed {
		return nil, storage.ErrTxDone
	}
	return st.conn.exec(nil, st.sql, args)
}

// ExecContext implements Stmt.
func (st *reliableStmt) ExecContext(ctx context.Context, args ...storage.Value) (*Result, error) {
	if st.closed {
		return nil, storage.ErrTxDone
	}
	return st.conn.exec(ctx, st.sql, args)
}

// Close implements Stmt.
func (st *reliableStmt) Close() error {
	st.closed = true
	return nil
}

// stmtKind classifies sql by its leading keyword, for transaction tracking.
type stmtKind uint8

const (
	kindOther stmtKind = iota
	kindBegin
	kindCommit
	kindRollback
)

func classify(sql string) stmtKind {
	s := strings.TrimSpace(sql)
	end := 0
	for end < len(s) && (s[end] != ' ' && s[end] != '\t' && s[end] != '\n' && s[end] != ';') {
		end++
	}
	switch strings.ToUpper(s[:end]) {
	case "BEGIN", "START":
		return kindBegin
	case "COMMIT", "END":
		return kindCommit
	case "ROLLBACK", "ABORT":
		return kindRollback
	}
	return kindOther
}

// exec runs one statement with retry/replay. It assumes the single-goroutine
// discipline of Conn (no internal locking, like the wrapped connections'
// transaction state itself).
func (r *reliableConn) exec(ctx context.Context, sql string, args []storage.Value) (*Result, error) {
	kind := classify(sql)
	res, err := r.doExec(ctx, sql, args)

	if kind == kindRollback && Retryable(err) && r.policy.Enabled() {
		// The transaction is gone either way; a rollback that failed
		// retryably (e.g. the connection dropped) has still achieved its
		// goal, since a lost session's transaction is rolled back by the
		// server and a serialization abort already ended it.
		r.txLog, r.overflow = nil, false
		return &Result{}, nil
	}
	// Retry loop, gated by Next. Inside a transaction a bare re-execution is
	// wrong (the transaction is aborted), so each attempt is a full replay
	// instead.
	for attempt := 1; err != nil; attempt++ {
		backoff, ok := r.policy.Next(ctx, attempt, err)
		if !ok {
			break
		}
		time.Sleep(backoff)
		atomic.AddUint64(&r.retries, 1)
		mRetries.Inc()
		if r.txLog != nil || kind == kindCommit {
			if r.txLog == nil || r.overflow {
				// Nothing (or not everything) to replay: surface the error to
				// the caller's own transaction-level retry.
				break
			}
			res, err = r.replay(ctx, sql, args, kind)
			if err == nil {
				return res, nil
			}
			continue
		}
		res, err = r.doExec(ctx, sql, args)
	}

	r.track(kind, sql, args, err)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// doExec performs one raw attempt on the underlying connection.
func (r *reliableConn) doExec(ctx context.Context, sql string, args []storage.Value) (*Result, error) {
	if ctx != nil {
		return r.conn.ExecContext(ctx, sql, args...)
	}
	return r.conn.Exec(sql, args...)
}

// replay re-runs the logged transaction followed by the failing statement.
// Any error during replay abandons it (after clearing server-side state with
// a best-effort rollback when the failure is not itself a fresh abort).
func (r *reliableConn) replay(ctx context.Context, sql string, args []storage.Value, kind stmtKind) (*Result, error) {
	for _, ls := range r.txLog {
		if _, err := r.doExec(ctx, ls.sql, ls.args); err != nil {
			return nil, fmt.Errorf("db: transaction replay failed: %w", err)
		}
	}
	res, err := r.doExec(ctx, sql, args)
	if err == nil && (kind == kindCommit || kind == kindRollback) {
		r.txLog, r.overflow = nil, false
	}
	return res, err
}

// track maintains the replay log across statement boundaries.
func (r *reliableConn) track(kind stmtKind, sql string, args []storage.Value, err error) {
	switch kind {
	case kindBegin:
		if err == nil {
			r.txLog = append([]loggedStmt(nil), loggedStmt{sql: sql, args: args})
			r.overflow = false
		}
	case kindCommit, kindRollback:
		// Success or failure, the transaction is over: the engine aborts an
		// explicit transaction on any statement error, commit included.
		r.txLog, r.overflow = nil, false
	default:
		if r.txLog == nil {
			return
		}
		if err != nil {
			// Statement errors abort the whole transaction server-side.
			r.txLog, r.overflow = nil, false
			return
		}
		if len(r.txLog) >= maxReplayLog {
			r.overflow = true
			return
		}
		cp := make([]storage.Value, len(args))
		copy(cp, args)
		r.txLog = append(r.txLog, loggedStmt{sql: sql, args: cp})
	}
}
