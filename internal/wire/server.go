package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"feralcc/internal/db"
	"feralcc/internal/faultinject"
	"feralcc/internal/sqlexec"
	"feralcc/internal/storage"
)

// Server serves the wire protocol over TCP on behalf of one database. Each
// accepted connection gets its own session (and therefore its own
// transaction state and statement handles), matching one PostgreSQL backend
// per client. All sessions share one plan cache, so a statement any client
// has issued before executes without re-parsing.
type Server struct {
	store *storage.Database
	cache *sqlexec.PlanCache
	ln    net.Listener
	logf  func(format string, args ...any)
	inj   *faultinject.Injector
	// slowQuery, when positive, logs any statement whose execution exceeds
	// it: one line with duration, trace ID, span breakdown, and SQL.
	slowQuery time.Duration
	// maxConns, when positive, bounds open connections: excess connections
	// are rejected at accept time with a CodeOverloaded frame (SetMaxConns).
	maxConns int
	// adm, when set, gates statement execution (SetAdmission).
	adm *admission

	mu       sync.Mutex
	conns    map[net.Conn]*connState
	closed   bool
	draining bool
	wg       sync.WaitGroup
}

// connState tracks whether a connection's handler is mid-statement, so a
// graceful drain can close idle connections immediately while letting busy
// ones finish and respond.
type connState struct {
	busy bool
}

// NewServer creates a server for store. logf may be nil to silence logging.
func NewServer(store *storage.Database, logf func(string, ...any)) *Server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Server{
		store: store,
		cache: sqlexec.NewPlanCache(0),
		logf:  logf,
		conns: make(map[net.Conn]*connState),
	}
}

// SetInjector installs a fault injector consulted at the server-side
// injection points (faultinject.PointServerRead, PointServerExec,
// PointServerWrite). Call before Serve.
func (s *Server) SetInjector(inj *faultinject.Injector) { s.inj = inj }

// SetSlowQuery installs the slow-query threshold (0 disables, the default).
// Call before Serve.
func (s *Server) SetSlowQuery(d time.Duration) { s.slowQuery = d }

// Listen binds addr (e.g. "127.0.0.1:5442"). Use Addr to recover the chosen
// port when addr ends in ":0".
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	return nil
}

// Addr returns the bound address, or "" before Listen.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve accepts connections until Close or Shutdown. It returns nil after
// either.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			stopping := s.closed || s.draining
			s.mu.Unlock()
			if stopping {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed || s.draining {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		if s.maxConns > 0 && len(s.conns) >= s.maxConns {
			s.mu.Unlock()
			mConnsRejected.Inc()
			go s.rejectConn(conn)
			continue
		}
		s.conns[conn] = &connState{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Close stops accepting, closes live connections, and waits for handlers.
// In-flight statements are abandoned; Shutdown is the graceful variant.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Shutdown drains the server gracefully: stop accepting, close idle
// connections, let busy handlers finish their current statement and send
// its response, then close. If ctx expires first, remaining connections are
// force-closed and ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	if s.ln != nil {
		s.ln.Close()
	}
	for c, st := range s.conns {
		if !st.busy {
			c.Close()
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return err
}

// beginStatement marks the connection busy. It reports false when the server
// is draining, in which case the handler must exit without executing.
func (s *Server) beginStatement(st *connState) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		return false
	}
	st.busy = true
	return true
}

// endStatement clears the busy mark. It reports true when the handler should
// keep serving, false when a drain began while the statement ran.
func (s *Server) endStatement(st *connState) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	st.busy = false
	return !s.draining && !s.closed
}

func (s *Server) handle(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		s.wg.Done()
	}()
	s.mu.Lock()
	st := s.conns[conn]
	s.mu.Unlock()
	if st == nil {
		return
	}
	mConnsTotal.Inc()
	mConnsInFlight.Inc()
	defer mConnsInFlight.Dec()
	session := sqlexec.NewSession(s.store)
	defer session.Reset()

	// Per-connection prepared-statement handle table. Handles are never
	// reused within a connection; the table dies with it.
	stmts := make(map[uint64]*sqlexec.Prepared)
	var nextHandle uint64

	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	// buf is reused across responses to keep the steady-state write path
	// allocation-free.
	var buf []byte
	for {
		body, err := readFrame(r)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !isConnReset(err) {
				s.logf("wire: read: %v", err)
			}
			return
		}
		if f := s.inj.Eval(faultinject.PointServerRead); f != nil {
			if f.Kind == faultinject.KindLatency {
				time.Sleep(f.Latency)
			} else {
				return
			}
		}
		// A frame read before the drain began still gets executed and
		// answered (it is in flight); one that loses the race is dropped
		// with the connection, which the client sees as a lost response.
		if !s.beginStatement(st) {
			return
		}
		mBytesRead.Add(uint64(len(body)) + 4)
		req, err := decodeRequest(body)
		if err != nil {
			// An undecodable frame means the stream is unframed garbage; no
			// reply can be trusted to line up, so drop the connection.
			s.logf("wire: decode: %v", err)
			s.endStatement(st)
			return
		}
		reqStart := time.Now()

		var resp response
		switch req.Type {
		case MsgExec, MsgExecute:
			s.execute(session, stmts, req, &resp)
		case MsgPrepare:
			p, err := s.cache.Get(session, req.SQL)
			if err != nil {
				fillResult(&resp, nil, err)
				break
			}
			nextHandle++
			stmts[nextHandle] = p
			resp.Handle = nextHandle
			resp.NumParams = p.NumParams()
		case MsgCloseStmt:
			delete(stmts, req.Handle)
		}

		requestCounter(req.Type).Inc()
		mRequestSeconds.Observe(time.Since(reqStart))

		if f := s.inj.EvalTraced(faultinject.PointServerWrite, resp.TraceID); f != nil {
			switch f.Kind {
			case faultinject.KindLatency:
				time.Sleep(f.Latency)
			case faultinject.KindTruncate:
				// Emit a partial frame straight to the socket (bypassing the
				// buffered writer) and sever: the client must detect the
				// mid-frame cut rather than hang or misparse.
				buf = encodeResponse(buf[:0], &resp)
				var frame bytes.Buffer
				writeFrame(&frame, buf)
				conn.Write(frame.Bytes()[:frame.Len()/2])
				s.endStatement(st)
				return
			default:
				s.endStatement(st)
				return
			}
		}
		buf = encodeResponse(buf[:0], &resp)
		if err := writeFrame(w, buf); err != nil {
			s.logf("wire: write: %v", err)
			s.endStatement(st)
			return
		}
		mBytesWritten.Add(uint64(len(buf)) + 4)
		if err := w.Flush(); err != nil {
			s.endStatement(st)
			return
		}
		if !s.endStatement(st) {
			return
		}
	}
}

// execute runs one MsgExec or MsgExecute statement: the exec fault point,
// admission, the statement trace, the deadline, the plan, execution, and the
// response. A plan that cannot be found never executed, so it releases its
// admission slot without a service time.
func (s *Server) execute(session *sqlexec.Session, stmts map[uint64]*sqlexec.Prepared, req *request, resp *response) {
	if s.execFault(session, resp, req.TraceID) {
		return
	}
	if err := s.admit(req.DeadlineNanos); err != nil {
		// Like any statement error, a shed aborts the session's open
		// transaction; the client's replay logic sees consistent state.
		session.Reset()
		fillResult(resp, nil, err)
		return
	}
	session.BeginTrace(req.TraceID)
	ctx, cancel := deadlineCtx(req.DeadlineNanos)
	defer cancel()
	start := time.Now()
	var res *sqlexec.Result
	var service time.Duration
	p, err := s.plan(session, stmts, req)
	if err == nil {
		res, err = session.ExecutePreparedContext(ctx, p, req.Args...)
		service = time.Since(start)
		s.finishExec(session, p.SQL(), resp, service)
	}
	s.admitDone(service)
	fillResult(resp, res, err)
}

// plan finds the statement a request runs: the shared plan cache for
// MsgExec, the connection's handle table for MsgExecute — where a plan DDL
// invalidated is replaced, so the re-parse happens once, not per execution.
func (s *Server) plan(session *sqlexec.Session, stmts map[uint64]*sqlexec.Prepared, req *request) (*sqlexec.Prepared, error) {
	if req.Type == MsgExec {
		return s.cache.Get(session, req.SQL)
	}
	p, ok := stmts[req.Handle]
	if !ok {
		return nil, fmt.Errorf("wire: unknown statement handle %d", req.Handle)
	}
	fresh, err := session.Refreshed(p)
	if err == nil {
		stmts[req.Handle] = fresh
	}
	return fresh, err
}

// execFault consults the pre-execution injection point. It reports true when
// a failing fault was injected (resp is then filled with its error); drop
// faults are reported as a generic injected failure response rather than a
// severed connection so that pre-execution drops stay request-path-safe for
// the client's retry logic.
func (s *Server) execFault(session *sqlexec.Session, resp *response, traceID uint64) bool {
	f := s.inj.EvalTraced(faultinject.PointServerExec, traceID)
	if f == nil {
		return false
	}
	switch f.Kind {
	case faultinject.KindLatency:
		time.Sleep(f.Latency)
		return false
	case faultinject.KindDrop, faultinject.KindTruncate:
		// A statement error — injected or not — aborts the session's open
		// transaction, so the client's replay logic sees consistent state.
		session.Reset()
		fillResult(resp, nil, fmt.Errorf("%w: statement rejected before execution", faultinject.ErrInjected))
		return true
	default:
		if err := f.Error(); err != nil {
			session.Reset()
			fillResult(resp, nil, err)
			return true
		}
		return false
	}
}

// finishExec stamps the response with the session's statement trace (the
// client's Result carries it home) and emits the slow-query log line — exactly
// one per offending statement — when execution exceeded the threshold.
func (s *Server) finishExec(session *sqlexec.Session, sql string, resp *response, dur time.Duration) {
	tr := session.Trace()
	resp.TraceID = tr.ID
	resp.CacheHit = tr.CacheHit
	resp.Spans = tr.Spans
	if s.slowQuery > 0 && dur >= s.slowQuery {
		mSlowQueries.Inc()
		s.logf("wire: slow query dur=%s %s sql=%q", dur, tr.String(), sql)
	}
}

// deadlineCtx builds the execution context for a statement's relative time
// budget: (nil, no-op) when unbounded. An already-spent budget simply yields
// an expired context, which the executor refuses before touching any data.
func deadlineCtx(nanos int64) (context.Context, context.CancelFunc) {
	if nanos <= 0 {
		return nil, func() {}
	}
	// Re-anchor the relative budget to the server's clock.
	return context.WithDeadline(context.Background(), time.Now().Add(time.Duration(nanos)))
}

// fillResult populates a response from an execution outcome.
func fillResult(resp *response, res *sqlexec.Result, err error) {
	resp.Code = codeOf(err)
	if err != nil {
		resp.Error = err.Error()
		if hint, ok := db.RetryAfter(err); ok {
			resp.RetryAfterNanos = int64(hint)
		}
		return
	}
	resp.Columns = res.Columns
	resp.Rows = res.Rows
	resp.RowsAffected = res.RowsAffected
	resp.LastInsertID = res.LastInsertID
}

func isConnReset(err error) bool {
	var ne *net.OpError
	return errors.As(err, &ne)
}

// ListenAndServe is a convenience for main functions: bind addr and serve
// until the process exits.
func ListenAndServe(store *storage.Database, addr string) error {
	s := NewServer(store, log.Printf)
	if err := s.Listen(addr); err != nil {
		return err
	}
	log.Printf("feraldbd listening on %s", s.Addr())
	return s.Serve()
}
