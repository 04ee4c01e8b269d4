// Package conntest is a behavioral test suite for db.Conn implementations.
// The embedded connection and the wire client both run it, so the two sides
// of the seam cannot drift: anything the ORM may assume about Exec/Prepare
// semantics is pinned here once.
package conntest

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"feralcc/internal/db"
	"feralcc/internal/obs"
	"feralcc/internal/storage"
)

// Factory returns a connection to a fresh, empty database. Each invocation
// must produce an isolated database (subtests create conflicting schemas).
type Factory func(t *testing.T) db.Conn

// Run exercises the Conn contract against the given factory.
func Run(t *testing.T, factory Factory) {
	t.Run("ExecBasic", func(t *testing.T) {
		conn := factory(t)
		mustExec(t, conn, "CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT, value TEXT)")
		res, err := conn.Exec("INSERT INTO kv (key, value) VALUES (?, ?)",
			storage.Str("a"), storage.Str("1"))
		if err != nil || res.RowsAffected != 1 || res.LastInsertID != 1 {
			t.Fatalf("insert: %+v %v", res, err)
		}
		res, err = conn.Exec("SELECT value FROM kv WHERE key = ?", storage.Str("a"))
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != "1" {
			t.Fatalf("select: %+v %v", res, err)
		}
	})

	t.Run("PrepareAndExecute", func(t *testing.T) {
		conn := factory(t)
		mustExec(t, conn, "CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT)")
		ins, err := conn.Prepare("INSERT INTO kv (key) VALUES (?)")
		if err != nil {
			t.Fatal(err)
		}
		defer ins.Close()
		sel, err := conn.Prepare("SELECT COUNT(*) FROM kv WHERE key = ?")
		if err != nil {
			t.Fatal(err)
		}
		defer sel.Close()
		for i := 0; i < 10; i++ {
			if _, err := ins.Exec(storage.Str("k")); err != nil {
				t.Fatal(err)
			}
		}
		res, err := sel.Exec(storage.Str("k"))
		if err != nil || res.Rows[0][0].I != 10 {
			t.Fatalf("count: %+v %v", res, err)
		}
		// Re-binding different arguments must not leak earlier bindings.
		res, err = sel.Exec(storage.Str("missing"))
		if err != nil || res.Rows[0][0].I != 0 {
			t.Fatalf("rebind: %+v %v", res, err)
		}
	})

	t.Run("PreparedRespectsTransactions", func(t *testing.T) {
		conn := factory(t)
		mustExec(t, conn, "CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT)")
		ins, err := conn.Prepare("INSERT INTO kv (key) VALUES (?)")
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, conn, "BEGIN")
		if _, err := ins.Exec(storage.Str("doomed")); err != nil {
			t.Fatal(err)
		}
		mustExec(t, conn, "ROLLBACK")
		res, err := conn.Exec("SELECT COUNT(*) FROM kv")
		if err != nil || res.Rows[0][0].I != 0 {
			t.Fatalf("prepared insert escaped rollback: %+v %v", res, err)
		}
	})

	t.Run("PreparedSurvivesDDL", func(t *testing.T) {
		conn := factory(t)
		mustExec(t, conn, "CREATE TABLE t (id BIGINT PRIMARY KEY, a TEXT)")
		mustExec(t, conn, "INSERT INTO t (a) VALUES ('x')")
		sel, err := conn.Prepare("SELECT * FROM t")
		if err != nil {
			t.Fatal(err)
		}
		res, err := sel.Exec()
		if err != nil || len(res.Columns) != 2 {
			t.Fatalf("before DDL: %+v %v", res, err)
		}
		// Replace the table with a different column set. The plan prepared
		// above is now stale; executing it must observe the new schema, not
		// the cached one.
		mustExec(t, conn, "DROP TABLE t")
		mustExec(t, conn, "CREATE TABLE t (id BIGINT PRIMARY KEY, a TEXT, b TEXT)")
		mustExec(t, conn, "INSERT INTO t (a, b) VALUES ('y', 'z')")
		res, err = sel.Exec()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Columns) != 3 || len(res.Rows) != 1 || len(res.Rows[0]) != 3 {
			t.Fatalf("stale plan executed after DDL: columns=%v rows=%v", res.Columns, res.Rows)
		}
	})

	t.Run("NegativeLimitRejected", func(t *testing.T) {
		conn := factory(t)
		mustExec(t, conn, "CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT)")
		mustExec(t, conn, "INSERT INTO kv (key) VALUES ('a')")
		for _, sql := range []string{"SELECT key FROM kv LIMIT ?", "SELECT key FROM kv ORDER BY key LIMIT 1 OFFSET ?"} {
			_, err := conn.Exec(sql, storage.Int(-1))
			if err == nil || !strings.Contains(err.Error(), "must not be negative") {
				t.Fatalf("%s bound to -1: err = %v, want a must-not-be-negative error", sql, err)
			}
		}
		// The connection (and, over the wire, the server behind it) survives.
		res, err := conn.Exec("SELECT key FROM kv LIMIT ?", storage.Int(1))
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("select after rejected LIMIT: %+v %v", res, err)
		}
	})

	t.Run("PrepareParseError", func(t *testing.T) {
		conn := factory(t)
		if _, err := conn.Prepare("SELEKT garbage"); err == nil {
			t.Fatal("prepare accepted garbage SQL")
		}
	})

	t.Run("ClosedStmtErrors", func(t *testing.T) {
		conn := factory(t)
		mustExec(t, conn, "CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT)")
		st, err := conn.Prepare("SELECT COUNT(*) FROM kv")
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Exec(); err == nil {
			t.Fatal("closed statement accepted execution")
		}
		// The connection itself must remain usable.
		if _, err := conn.Exec("SELECT COUNT(*) FROM kv"); err != nil {
			t.Fatalf("conn unusable after stmt close: %v", err)
		}
	})

	// Cancellation/deadline contract: a statement bounded by a context that
	// is already done must not execute; one whose deadline expires must fail
	// with a timeout-class error; and in both cases the session stays usable
	// with any open transaction rolled back.
	t.Run("ContextPreCancelled", func(t *testing.T) {
		conn := factory(t)
		mustExec(t, conn, "CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT)")
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := conn.ExecContext(ctx, "INSERT INTO kv (key) VALUES ('x')"); err == nil {
			t.Fatal("cancelled context executed a statement")
		}
		res, err := conn.Exec("SELECT COUNT(*) FROM kv")
		if err != nil {
			t.Fatalf("conn unusable after cancelled statement: %v", err)
		}
		if res.Rows[0][0].I != 0 {
			t.Fatalf("statement executed despite pre-cancelled context: count=%d", res.Rows[0][0].I)
		}
	})

	t.Run("ContextDeadlineExpired", func(t *testing.T) {
		conn := factory(t)
		mustExec(t, conn, "CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT)")
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		_, err := conn.ExecContext(ctx, "INSERT INTO kv (key) VALUES ('x')")
		if err == nil {
			t.Fatal("expired deadline executed a statement")
		}
		if !errors.Is(err, storage.ErrStmtDeadline) && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("expired deadline surfaced as %v, want timeout class", err)
		}
		if !db.Transient(err) {
			t.Fatalf("deadline error %v must classify as transient", err)
		}
		if db.Retryable(err) {
			t.Fatalf("deadline error %v must not auto-retry (the caller's budget is spent)", err)
		}
	})

	t.Run("CancelRollsBackOpenTx", func(t *testing.T) {
		conn := factory(t)
		mustExec(t, conn, "CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT)")
		mustExec(t, conn, "BEGIN")
		mustExec(t, conn, "INSERT INTO kv (key) VALUES ('in-tx')")
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := conn.ExecContext(ctx, "INSERT INTO kv (key) VALUES ('cancelled')"); err == nil {
			t.Fatal("cancelled context executed a statement inside a transaction")
		}
		// A failed statement aborts the open transaction (PostgreSQL-style),
		// though a remote implementation may complete the rollback
		// asynchronously; poll briefly for the rows to vanish.
		deadline := time.Now().Add(2 * time.Second)
		for {
			res, err := conn.Exec("SELECT COUNT(*) FROM kv")
			if err == nil && res.Rows[0][0].I == 0 {
				break
			}
			// A COMMIT attempt must not resurrect the aborted transaction.
			if err == nil && time.Now().After(deadline) {
				t.Fatalf("open transaction not rolled back after cancel: %d rows visible", res.Rows[0][0].I)
			}
			if err != nil && time.Now().After(deadline) {
				t.Fatalf("conn unusable after cancelled in-tx statement: %v", err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		// The session must be usable for a fresh transaction afterwards.
		mustExec(t, conn, "BEGIN")
		mustExec(t, conn, "INSERT INTO kv (key) VALUES ('fresh')")
		mustExec(t, conn, "COMMIT")
		res, err := conn.Exec("SELECT COUNT(*) FROM kv")
		if err != nil || res.Rows[0][0].I != 1 {
			t.Fatalf("fresh transaction after cancel: %+v %v", res, err)
		}
	})

	t.Run("TraceRoundTrip", func(t *testing.T) {
		// Every Result carries the statement's trace — ID, plan-cache verdict,
		// span timings — and both sides of the seam must agree: what the
		// embedded session records is what the wire client gets back, spans
		// intact, after a full protocol round trip.
		conn := factory(t)
		mustExec(t, conn, "CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT)")
		ins, err := conn.Exec("INSERT INTO kv (key) VALUES ('traced')")
		if err != nil {
			t.Fatal(err)
		}
		if ins.Trace.ID == 0 {
			t.Fatal("autocommit insert returned a zero trace ID")
		}
		if ins.Trace.Span(obs.SpanExec) <= 0 {
			t.Fatalf("exec span missing from trace: %s", ins.Trace.String())
		}
		if ins.Trace.Span(obs.SpanCommit) <= 0 {
			t.Fatalf("autocommit insert recorded no commit span: %s", ins.Trace.String())
		}
		sel, err := conn.Exec("SELECT COUNT(*) FROM kv")
		if err != nil {
			t.Fatal(err)
		}
		if sel.Trace.ID == 0 || sel.Trace.ID == ins.Trace.ID {
			t.Fatalf("statements must get distinct non-zero trace IDs: %016x then %016x",
				ins.Trace.ID, sel.Trace.ID)
		}
		if sel.Trace.Span(obs.SpanExec) <= 0 {
			t.Fatalf("exec span missing from select trace: %s", sel.Trace.String())
		}
		// Repeating the identical SQL must report a plan-cache hit.
		sel2, err := conn.Exec("SELECT COUNT(*) FROM kv")
		if err != nil {
			t.Fatal(err)
		}
		if !sel2.Trace.CacheHit {
			t.Fatalf("repeated statement did not report a plan-cache hit: %s", sel2.Trace.String())
		}
	})
}

func mustExec(t *testing.T, conn db.Conn, sql string) {
	t.Helper()
	if _, err := conn.Exec(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}
