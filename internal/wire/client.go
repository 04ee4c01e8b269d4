package wire

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"feralcc/internal/db"
	"feralcc/internal/faultinject"
	"feralcc/internal/obs"
	"feralcc/internal/storage"
)

// Options tunes a client connection.
type Options struct {
	// Timeout bounds each round trip (send plus await-response) when the
	// caller's context carries no nearer deadline. Zero means unbounded —
	// but note that an unbounded client hangs forever on a stalled server,
	// so production callers should always set one.
	Timeout time.Duration
	// DialTimeout bounds connection establishment (default 5s), for both
	// the initial dial and automatic redials.
	DialTimeout time.Duration
	// NoRedial disables automatic reconnection after a dropped connection.
	// By default the client redials transparently on the next call, which
	// pairs with db.Reliable's replay to ride out connection loss.
	NoRedial bool
	// Injector, when non-nil, is consulted at the client-side injection
	// points (faultinject.PointClientSend, PointClientRecv).
	Injector *faultinject.Injector
}

// Client is a database connection over the wire protocol. It implements
// db.Conn, so any code written against the embedded database runs unchanged
// against a remote server — including prepared statements, which map to
// server-side statement handles.
//
// Failure classification follows the db package's taxonomy. A failure while
// sending a request severs the connection and returns db.ErrConnDropped
// (retryable: the statement never reached the executor). A failure while
// awaiting the response also severs the connection but is NOT retryable,
// because the statement may well have executed; it surfaces as a transient
// response-lost error, or as storage.ErrStmtDeadline when the wait exceeded
// the round-trip budget. After a severed connection the next call redials
// automatically (unless NoRedial), invalidating server-side state: the new
// session has no open transaction, and prepared statements transparently
// re-prepare themselves via a connection generation counter.
type Client struct {
	mu   sync.Mutex
	addr string
	opts Options
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	// buf is reused for request encoding so the steady-state send path is
	// allocation-free.
	buf []byte
	// gen counts established connections; prepared statements record the
	// generation they were prepared on and re-prepare when it moves.
	gen    uint64
	broken bool
	closed bool
}

var _ db.Conn = (*Client)(nil)

// Dial connects to a wire server with default options.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, Options{})
}

// DialTimeout connects with a bounded dial time.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	return DialOptions(addr, Options{DialTimeout: timeout})
}

// DialOptions connects with full configuration.
func DialOptions(addr string, opts Options) (*Client, error) {
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 5 * time.Second
	}
	c := &Client{addr: addr, opts: opts}
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// connect (re)establishes the TCP connection. Caller holds c.mu (or owns the
// client exclusively, as in DialOptions).
func (c *Client) connect() error {
	conn, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return fmt.Errorf("%w: dial %s: %v", db.ErrConnDropped, c.addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	if c.gen > 0 {
		mClientRedials.Inc()
	}
	c.conn = conn
	c.r = bufio.NewReader(conn)
	c.w = bufio.NewWriter(conn)
	c.broken = false
	c.gen++
	return nil
}

// sever marks the current connection unusable and closes it.
func (c *Client) sever() {
	c.broken = true
	if c.conn != nil {
		c.conn.Close()
	}
}

// Gen returns the connection generation (tests use it to observe redials).
func (c *Client) Gen() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// ensureConn redials a severed connection when permitted. Caller holds c.mu.
func (c *Client) ensureConn() error {
	if c.closed {
		return net.ErrClosed
	}
	if !c.broken {
		return nil
	}
	if c.opts.NoRedial {
		return fmt.Errorf("%w: connection severed and redial disabled", db.ErrConnDropped)
	}
	return c.connect()
}

// responseLostError reports a connection failure after the request was
// flushed: the statement's outcome is unknown, so the error is transient
// (infrastructure, not the request) but deliberately not retryable.
type responseLostError struct{ err error }

func (e *responseLostError) Error() string {
	return fmt.Sprintf("wire: connection lost awaiting response: %v", e.err)
}
func (e *responseLostError) Unwrap() error   { return e.err }
func (e *responseLostError) Transient() bool { return true }

// sendPathErr classifies a failure before the request was fully flushed.
// Caller holds c.mu.
func (c *Client) sendPathErr(err error) error {
	c.sever()
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		// The budget ran out mid-send: the statement did not execute, but
		// the caller's time is spent, so this is a deadline error (transient,
		// not auto-retried) rather than a retryable drop.
		mClientDeadlineExpiries.Inc()
		return fmt.Errorf("%w: %v", storage.ErrStmtDeadline, err)
	}
	return fmt.Errorf("%w: %v", db.ErrConnDropped, err)
}

// recvPathErr classifies a failure after the request was flushed. Caller
// holds c.mu.
func (c *Client) recvPathErr(err error) error {
	c.sever()
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		mClientDeadlineExpiries.Inc()
		return fmt.Errorf("%w: no response within round-trip budget: %v", storage.ErrStmtDeadline, err)
	}
	return &responseLostError{err: err}
}

// budgetFor computes the round-trip budget: the nearer of the context
// deadline and the configured per-call timeout (0 = unbounded). The second
// return is non-nil when the context is already done.
func (c *Client) budgetFor(ctx context.Context) (time.Duration, error) {
	var budget time.Duration
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("wire: statement aborted: %w", err)
		}
		if dl, ok := ctx.Deadline(); ok {
			budget = time.Until(dl)
			if budget <= 0 {
				mClientDeadlineExpiries.Inc()
				return 0, fmt.Errorf("%w: context deadline already passed", storage.ErrStmtDeadline)
			}
		}
	}
	if t := c.opts.Timeout; t > 0 && (budget == 0 || t < budget) {
		budget = t
	}
	return budget, nil
}

// abortStatement best-effort ships a request whose budget is spent on
// arrival, so the server fails it before execution (aborting any open
// transaction there). Any wire failure severs the connection instead, which
// makes the server roll back as for a vanished peer — the same end state.
// Caller holds c.mu.
func (c *Client) abortStatement(req *request) {
	req.DeadlineNanos = 1
	io := c.opts.Timeout
	if io <= 0 {
		io = time.Second
	}
	c.conn.SetDeadline(time.Now().Add(io))
	c.buf = encodeRequest(c.buf[:0], req)
	if writeFrame(c.w, c.buf) != nil || c.w.Flush() != nil {
		c.sever()
		return
	}
	if _, err := readFrame(c.r); err != nil {
		c.sever()
	}
}

// roundTrip sends one request and reads its response. Caller holds c.mu.
func (c *Client) roundTrip(ctx context.Context, req *request) (*response, error) {
	if c.closed {
		return nil, net.ErrClosed
	}
	if err := c.ensureConn(); err != nil {
		return nil, err
	}
	budget, err := c.budgetFor(ctx)
	if err != nil {
		// The caller's context is already done, so the statement must not
		// run — but the server still has to observe a failed statement so
		// its session aborts any open transaction, just as the embedded
		// session does (the moral equivalent of PostgreSQL's cancel
		// request). Ship the request with a 1ns budget, which expires on
		// arrival, and surface the context error regardless of the reply.
		c.abortStatement(req)
		return nil, err
	}
	req.DeadlineNanos = int64(budget)
	// Mint the statement's trace ID at the outermost tier: it travels with
	// the request, the server threads it through the executor and storage,
	// and the response echoes it back with the span timings.
	if (req.Type == MsgExec || req.Type == MsgExecute) && req.TraceID == 0 {
		req.TraceID = obs.NewTraceID()
	}

	// Client-side send faults fire before any byte is written, so a drop
	// here is always retry-safe.
	if f := c.opts.Injector.EvalTraced(faultinject.PointClientSend, req.TraceID); f != nil {
		switch f.Kind {
		case faultinject.KindLatency:
			time.Sleep(f.Latency)
		case faultinject.KindDrop:
			c.sever()
			return nil, fmt.Errorf("%w: %v", db.ErrConnDropped, faultinject.ErrInjected)
		case faultinject.KindTruncate:
			// Ship a frame header that promises more body than will ever
			// arrive, then sever: the server must abandon the connection
			// without executing anything.
			c.conn.Write([]byte{0, 0, 0, 16, byte(MsgExec)})
			c.sever()
			return nil, fmt.Errorf("%w: %v", db.ErrConnDropped, faultinject.ErrInjected)
		default:
			if err := f.Error(); err != nil {
				return nil, err
			}
		}
	}

	if budget > 0 {
		c.conn.SetDeadline(time.Now().Add(budget))
	} else {
		c.conn.SetDeadline(time.Time{})
	}
	c.buf = encodeRequest(c.buf[:0], req)
	if err := writeFrame(c.w, c.buf); err != nil {
		return nil, c.sendPathErr(err)
	}
	if err := c.w.Flush(); err != nil {
		return nil, c.sendPathErr(err)
	}

	// Past this point the request is on the wire; failures are no longer
	// retry-safe (the statement may execute regardless).
	if f := c.opts.Injector.EvalTraced(faultinject.PointClientRecv, req.TraceID); f != nil {
		switch f.Kind {
		case faultinject.KindLatency:
			time.Sleep(f.Latency)
		case faultinject.KindDrop, faultinject.KindTruncate:
			c.sever()
			return nil, &responseLostError{err: faultinject.ErrInjected}
		default:
			if err := f.Error(); err != nil {
				c.sever()
				return nil, &responseLostError{err: err}
			}
		}
	}
	body, err := readFrame(c.r)
	if err != nil {
		return nil, c.recvPathErr(err)
	}
	resp, err := decodeResponse(body)
	if err != nil {
		// The stream can no longer be trusted to be in frame sync.
		c.sever()
		return nil, c.recvPathErr(err)
	}
	if resp.Code != CodeOK {
		if resp.Code == CodeOverloaded {
			mClientOverloaded.Inc()
		}
		return nil, errorFor(resp.Code, resp.Error, time.Duration(resp.RetryAfterNanos))
	}
	return resp, nil
}

// toResult hands a decoded response to the caller as an executor result; its
// rows are the decoded values themselves.
func toResult(resp *response) *db.Result {
	return &db.Result{
		Columns:      resp.Columns,
		Rows:         resp.Rows,
		RowsAffected: resp.RowsAffected,
		LastInsertID: resp.LastInsertID,
		Trace: obs.StmtTrace{
			ID:       resp.TraceID,
			CacheHit: resp.CacheHit,
			Spans:    resp.Spans,
		},
	}
}

// Exec implements db.Conn. Server-side, the statement hits the shared plan
// cache, so repeated SQL is not re-parsed.
func (c *Client) Exec(sql string, args ...storage.Value) (*db.Result, error) {
	return c.ExecContext(nil, sql, args...)
}

// ExecContext implements db.Conn. The context deadline (or Options.Timeout,
// whichever is nearer) bounds the round trip client-side via socket
// deadlines AND travels to the server as the statement's time budget, so a
// stalled statement is aborted at both ends.
func (c *Client) ExecContext(ctx context.Context, sql string, args ...storage.Value) (*db.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := c.roundTrip(ctx, &request{Type: MsgExec, SQL: sql, Args: args})
	if err != nil {
		return nil, err
	}
	return toResult(resp), nil
}

// Prepare implements db.Conn: the statement is planned server-side once and
// subsequent Execs ship only a handle and the arguments.
func (c *Client) Prepare(sql string) (db.Stmt, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, err := c.roundTrip(nil, &request{Type: MsgPrepare, SQL: sql})
	if err != nil {
		return nil, err
	}
	return &clientStmt{c: c, sql: sql, handle: resp.Handle, gen: c.gen}, nil
}

// Close implements db.Conn. The server rolls back any open transaction when
// the connection drops. A closed client never redials.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}

// clientStmt is a prepared statement backed by a server-side handle. The
// handle is only meaningful on the connection generation that prepared it;
// after a redial the statement transparently re-prepares itself.
type clientStmt struct {
	c      *Client
	sql    string
	handle uint64
	gen    uint64
	closed bool
}

// refresh re-prepares the statement when the connection generation moved.
// Caller holds st.c.mu.
func (st *clientStmt) refresh() error {
	if st.gen == st.c.gen && !st.c.broken {
		return nil
	}
	resp, err := st.c.roundTrip(nil, &request{Type: MsgPrepare, SQL: st.sql})
	if err != nil {
		return err
	}
	st.handle = resp.Handle
	st.gen = st.c.gen
	return nil
}

// Exec implements db.Stmt.
func (st *clientStmt) Exec(args ...storage.Value) (*db.Result, error) {
	return st.ExecContext(nil, args...)
}

// ExecContext implements db.Stmt.
func (st *clientStmt) ExecContext(ctx context.Context, args ...storage.Value) (*db.Result, error) {
	st.c.mu.Lock()
	defer st.c.mu.Unlock()
	if st.closed {
		return nil, net.ErrClosed
	}
	if err := st.refresh(); err != nil {
		return nil, err
	}
	resp, err := st.c.roundTrip(ctx, &request{Type: MsgExecute, Handle: st.handle, Args: args})
	if err != nil {
		return nil, err
	}
	return toResult(resp), nil
}

// Close implements db.Stmt, releasing the server-side handle.
func (st *clientStmt) Close() error {
	st.c.mu.Lock()
	defer st.c.mu.Unlock()
	if st.closed || st.c.closed || st.c.broken || st.gen != st.c.gen {
		// A handle from a dead connection generation has nothing to release.
		st.closed = true
		return nil
	}
	st.closed = true
	_, err := st.c.roundTrip(nil, &request{Type: MsgCloseStmt, Handle: st.handle})
	return err
}
