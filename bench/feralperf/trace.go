package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"feralcc/internal/db"
	"feralcc/internal/obs"
	"feralcc/internal/storage"
)

// The traced run times two boundaries from the benchmark's own files: the
// HTTP client times the appserver boundary (one request span per request,
// see drive.go) and tracedConn, handed to appserver.NewPool as the worker's
// connection, times the orm→db boundary (one span per statement, grouped
// into one span per ORM transaction). Below the wire it has no clock of its
// own: it reads the server-side span durations every db.Result already
// carries home. Spans stay in memory until the run ends.

// stmtSpan is one statement as the ORM's connection saw it.
type stmtSpan struct {
	name       string // first SQL keyword, or "prepare"
	tx         int    // ordinal of the enclosing txSpan on this connection
	start, end time.Duration
	server     [obs.NumSpans]int64 // nanoseconds, zero when the statement failed
}

// txSpan is one ORM transaction interval: BEGIN's start to COMMIT's or
// ROLLBACK's end, or a single autocommit statement.
type txSpan struct {
	start, end time.Duration
}

// connTracer collects the spans of one worker's connection. A worker serves
// one request at a time, so no lock is needed; on is flipped only while the
// stack is idle.
type connTracer struct {
	id    int
	on    bool
	epoch time.Time
	inTx  bool
	// prepared is when a Prepare began outside any interval: the interval the
	// next statement opens starts there, because the ORM prepares a statement
	// right before first running it.
	prepared    time.Duration
	hasPrepared bool
	txs         []txSpan
	stmts       []stmtSpan
}

func (t *connTracer) observe(name string, start, end time.Time, res *db.Result) {
	if !t.on {
		return
	}
	sp := stmtSpan{name: name, tx: len(t.txs), start: start.Sub(t.epoch), end: end.Sub(t.epoch)}
	if res != nil {
		sp.server = res.Trace.Spans
	}
	if t.inTx {
		sp.tx--
	}
	t.stmts = append(t.stmts, sp)
	if name == "prepare" {
		if !t.inTx && !t.hasPrepared {
			t.prepared, t.hasPrepared = sp.start, true
		}
		return
	}
	if !t.inTx {
		open := sp.start
		if t.hasPrepared {
			open, t.hasPrepared = t.prepared, false
		}
		t.txs = append(t.txs, txSpan{start: open})
		t.inTx = name == "begin"
	}
	if name == "commit" || name == "rollback" {
		t.inTx = false
	}
	if !t.inTx {
		t.txs[len(t.txs)-1].end = sp.end
	}
}

// stmtName is the statement's first keyword, lower-cased.
func stmtName(sql string) string {
	sql = strings.TrimSpace(sql)
	if i := strings.IndexAny(sql, " \t\n("); i > 0 {
		sql = sql[:i]
	}
	return strings.ToLower(sql)
}

// tracedConn wraps a worker's db.Conn with the timing above.
type tracedConn struct {
	db.Conn
	t *connTracer
}

func (c *tracedConn) Exec(sql string, args ...storage.Value) (*db.Result, error) {
	start := time.Now()
	res, err := c.Conn.Exec(sql, args...)
	c.t.observe(stmtName(sql), start, time.Now(), res)
	return res, err
}

func (c *tracedConn) ExecContext(ctx context.Context, sql string, args ...storage.Value) (*db.Result, error) {
	start := time.Now()
	res, err := c.Conn.ExecContext(ctx, sql, args...)
	c.t.observe(stmtName(sql), start, time.Now(), res)
	return res, err
}

func (c *tracedConn) Prepare(sql string) (db.Stmt, error) {
	start := time.Now()
	st, err := c.Conn.Prepare(sql)
	c.t.observe("prepare", start, time.Now(), nil)
	if err != nil {
		return nil, err
	}
	return &tracedStmt{Stmt: st, name: stmtName(sql), t: c.t}, nil
}

type tracedStmt struct {
	db.Stmt
	name string
	t    *connTracer
}

func (s *tracedStmt) Exec(args ...storage.Value) (*db.Result, error) {
	start := time.Now()
	res, err := s.Stmt.Exec(args...)
	s.t.observe(s.name, start, time.Now(), res)
	return res, err
}

func (s *tracedStmt) ExecContext(ctx context.Context, args ...storage.Value) (*db.Result, error) {
	start := time.Now()
	res, err := s.Stmt.ExecContext(ctx, args...)
	s.t.observe(s.name, start, time.Now(), res)
	return res, err
}

// layerSums are the totals of one or more traced blocks from which every
// per-layer time is derived as a span's duration minus its children's.
type layerSums struct {
	requests int
	txs      int
	stmts    int // statements executed, prepares excluded
	reqWall  time.Duration
	txWall   time.Duration
	stmtWall time.Duration // prepares included: they are round trips too
	exec     time.Duration
	parse    time.Duration
	commit   time.Duration
	lockWait time.Duration
	wal      time.Duration
	// Transactions that ended in COMMIT or in ROLLBACK, and the statements
	// inside them: the round trips an accepted and a rejected save cost.
	committed, rolledBack           int
	committedStmts, rolledBackStmts int
}

func (l *layerSums) addConn(t *connTracer) {
	l.txs += len(t.txs)
	for _, tx := range t.txs {
		l.txWall += tx.end - tx.start
	}
	perTx, last := make([]int, len(t.txs)), make([]string, len(t.txs))
	for i := range t.stmts {
		sp := &t.stmts[i]
		l.stmtWall += sp.end - sp.start
		if sp.name != "prepare" {
			l.stmts++
			perTx[sp.tx]++
			last[sp.tx] = sp.name
		}
		l.exec += time.Duration(sp.server[obs.SpanExec])
		l.parse += time.Duration(sp.server[obs.SpanParse])
		l.commit += time.Duration(sp.server[obs.SpanCommit])
		l.lockWait += time.Duration(sp.server[obs.SpanLockWait])
		l.wal += time.Duration(sp.server[obs.SpanWALAppend])
	}
	for i, n := range perTx {
		switch last[i] {
		case "commit":
			l.committed++
			l.committedStmts += n
		case "rollback":
			l.rolledBack++
			l.rolledBackStmts += n
		}
	}
}

func (l *layerSums) add(o layerSums) {
	l.requests += o.requests
	l.txs += o.txs
	l.stmts += o.stmts
	l.reqWall += o.reqWall
	l.txWall += o.txWall
	l.stmtWall += o.stmtWall
	l.exec += o.exec
	l.parse += o.parse
	l.commit += o.commit
	l.lockWait += o.lockWait
	l.wal += o.wal
	l.committed += o.committed
	l.rolledBack += o.rolledBack
	l.committedStmts += o.committedStmts
	l.rolledBackStmts += o.rolledBackStmts
}

// layer is one row of the budget table: a layer's self time, all requests
// summed.
type layer struct {
	name string
	self time.Duration
}

// layers splits Σ request wall into self times, outermost first. Each is a
// span minus the spans nested directly inside it, so the rows sum to the
// request wall by construction; a negative row means spans do not nest as
// assumed and fails the run.
func (l *layerSums) layers() []layer {
	return []layer{
		{"appserver.self_us", l.reqWall - l.txWall},
		{"orm.self_us", l.txWall - l.stmtWall},
		{"wire.self_us", l.stmtWall - l.exec - l.parse},
		{"sqlexec.parse_us", l.parse},
		{"sqlexec.self_us", l.exec - l.commit - l.lockWait},
		{"storage.lock_wait_us", l.lockWait},
		{"storage.commit_us", l.commit - l.wal},
		{"storage.wal_us", l.wal},
	}
}

// writeTrace writes one traced block's spans as JSON lines: request spans
// from the HTTP client, then each connection's transaction and statement
// spans. Times are nanoseconds since the block's clock started. A transaction's
// id is its connection and ordinal on it, and a statement's parent is its
// transaction; request spans carry their sequence index and join the others
// in aggregate only, because the handler that links a request to a worker is
// not reachable from outside.
func writeTrace(path string, samples []sample, tracers []*connTracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Span   string           `json:"span"`
		ID     string           `json:"id"`
		Name   string           `json:"name,omitempty"`
		Parent string           `json:"parent,omitempty"`
		Start  int64            `json:"start"`
		End    int64            `json:"end"`
		Status int              `json:"status,omitempty"`
		Server map[string]int64 `json:"server_ns,omitempty"`
	}
	for i, s := range samples {
		_ = enc.Encode(line{Span: "request", ID: fmt.Sprintf("r%d", i),
			Start: int64(s.start), End: int64(s.end), Status: s.status})
	}
	for _, t := range tracers {
		for i, tx := range t.txs {
			_ = enc.Encode(line{Span: "tx", ID: fmt.Sprintf("c%d.t%d", t.id, i),
				Start: int64(tx.start), End: int64(tx.end)})
		}
		for i, sp := range t.stmts {
			var server map[string]int64
			for id, ns := range sp.server {
				if ns != 0 {
					if server == nil {
						server = make(map[string]int64)
					}
					server[obs.SpanID(id).String()] = ns
				}
			}
			_ = enc.Encode(line{Span: "stmt", ID: fmt.Sprintf("c%d.s%d", t.id, i), Name: sp.name,
				Parent: fmt.Sprintf("c%d.t%d", t.id, sp.tx),
				Start:  int64(sp.start), End: int64(sp.end), Server: server})
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
