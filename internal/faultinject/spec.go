package faultinject

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"feralcc/internal/db"
	"feralcc/internal/storage"
)

// Spec is a parsed command-line fault specification, the form feralbench
// accepts as -faults:
//
//	drop=0.01,latency=5ms,abort=0.02
//
// Each comma-separated entry is [point:]kind=value. For failure kinds
// (drop, truncate, error, abort, deadlock) the value is the firing rate in
// [0,1]; for latency it is a duration, optionally suffixed @rate (default:
// every evaluation). An entry without an explicit point arms the uniform
// db.exec point, which Wrap applies in front of any connection — embedded
// or wire — so one spec means the same thing for both deployment shapes.
// Explicit points (e.g. wire.client.send:drop=0.05) arm the named seam
// directly for layer-targeted scripts; a point must be one of the package's
// Point* names.
type Spec struct {
	Entries []SpecEntry
}

// SpecEntry is one armed rule of a Spec.
type SpecEntry struct {
	Point   string // "" = the default db.exec point
	Kind    Kind
	Rate    float64
	Latency time.Duration
}

// Empty reports whether the spec arms anything.
func (s Spec) Empty() bool { return len(s.Entries) == 0 }

// String renders the spec back in its command-line form.
func (s Spec) String() string {
	parts := make([]string, 0, len(s.Entries))
	for _, e := range s.Entries {
		var p string
		if e.Kind == KindLatency {
			p = fmt.Sprintf("latency=%s", e.Latency)
			if e.Rate < 1 {
				p += fmt.Sprintf("@%g", e.Rate)
			}
		} else {
			p = fmt.Sprintf("%s=%g", e.Kind, e.Rate)
		}
		if e.Point != "" {
			p = e.Point + ":" + p
		}
		parts = append(parts, p)
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses a -faults value. An empty string yields an empty spec.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	s = strings.TrimSpace(s)
	if s == "" || s == "none" {
		return spec, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		e, err := parseEntry(part)
		if err != nil {
			return Spec{}, err
		}
		spec.Entries = append(spec.Entries, e)
	}
	return spec, nil
}

func parseEntry(part string) (SpecEntry, error) {
	var e SpecEntry
	body := part
	// A point prefix is everything before the last ':' preceding the '='.
	if eq := strings.Index(body, "="); eq >= 0 {
		if colon := strings.LastIndex(body[:eq], ":"); colon >= 0 {
			e.Point = strings.TrimSpace(body[:colon])
			body = body[colon+1:]
			if !points[e.Point] {
				return e, fmt.Errorf("faultinject: unknown fault point %q in %q", e.Point, part)
			}
		}
	}
	kv := strings.SplitN(body, "=", 2)
	if len(kv) != 2 {
		return e, fmt.Errorf("faultinject: malformed fault %q (want kind=value)", part)
	}
	kindName := strings.TrimSpace(kv[0])
	val := strings.TrimSpace(kv[1])
	kind, ok := kindByName(kindName)
	if !ok {
		return e, fmt.Errorf("faultinject: unknown fault kind %q in %q", kindName, part)
	}
	e.Kind = kind
	if kind == KindLatency {
		e.Rate = 1
		if at := strings.LastIndex(val, "@"); at >= 0 {
			rate, err := strconv.ParseFloat(val[at+1:], 64)
			if err != nil {
				return e, fmt.Errorf("faultinject: bad latency rate in %q: %v", part, err)
			}
			e.Rate = rate
			val = val[:at]
		}
		d, err := time.ParseDuration(val)
		if err != nil {
			return e, fmt.Errorf("faultinject: bad latency in %q: %v", part, err)
		}
		e.Latency = d
	} else {
		rate, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return e, fmt.Errorf("faultinject: bad rate in %q: %v", part, err)
		}
		e.Rate = rate
	}
	if e.Rate < 0 || e.Rate > 1 {
		return e, fmt.Errorf("faultinject: rate %g out of [0,1] in %q", e.Rate, part)
	}
	return e, nil
}

func kindByName(name string) (Kind, bool) {
	switch strings.ToLower(name) {
	case "latency":
		return KindLatency, true
	case "drop":
		return KindDrop, true
	case "truncate":
		return KindTruncate, true
	case "error":
		return KindError, true
	case "abort", "serialization":
		return KindSerialization, true
	case "deadlock":
		return KindDeadlock, true
	}
	return 0, false
}

// Injector builds a seeded injector with the spec's entries armed. Entries
// without an explicit point land on PointDBExec; apply them with Wrap.
func (s Spec) Injector(seed int64) *Injector {
	in := New(seed)
	byPoint := make(map[string][]Rule)
	for _, e := range s.Entries {
		pt := e.Point
		if pt == "" {
			pt = PointDBExec
		}
		byPoint[pt] = append(byPoint[pt], Rule{Kind: e.Kind, Rate: e.Rate, Latency: e.Latency})
	}
	// Arm in sorted-point order so rule indices (and therefore the
	// deterministic draws) do not depend on map iteration.
	pts := make([]string, 0, len(byPoint))
	for pt := range byPoint {
		pts = append(pts, pt)
	}
	sort.Strings(pts)
	for _, pt := range pts {
		in.Arm(pt, byPoint[pt]...)
	}
	return in
}

// Wrap interposes the injector's db.exec point in front of a connection, so
// embedded and wire stacks share one fault vocabulary. A drop or truncate
// fault models a connection lost before the statement executed: any open
// transaction is rolled back (as a real server does when its peer vanishes)
// and the statement fails with a retryable connection-dropped error, without
// ever reaching the underlying executor.
func Wrap(conn db.Conn, in *Injector) db.Conn {
	if in == nil {
		return conn
	}
	return &wrappedConn{conn: conn, in: in}
}

type wrappedConn struct {
	conn db.Conn
	in   *Injector
}

// evalExec runs the db.exec point and returns the error to surface, if any.
func (w *wrappedConn) evalExec() error {
	f := w.in.Eval(PointDBExec)
	if f == nil {
		return nil
	}
	switch f.Kind {
	case KindLatency:
		time.Sleep(f.Latency)
		return nil
	case KindDrop, KindTruncate:
		// Model the server-side effect of a vanished peer, then fail the
		// statement on the "client" side.
		w.conn.Exec("ROLLBACK")
		return &injectedError{kind: f.Kind, base: db.ErrConnDropped}
	default:
		return f.Error()
	}
}

func (w *wrappedConn) Exec(sql string, args ...storage.Value) (*db.Result, error) {
	if err := w.evalExec(); err != nil {
		return nil, err
	}
	return w.conn.Exec(sql, args...)
}

func (w *wrappedConn) ExecContext(ctx context.Context, sql string, args ...storage.Value) (*db.Result, error) {
	if err := w.evalExec(); err != nil {
		return nil, err
	}
	return w.conn.ExecContext(ctx, sql, args...)
}

func (w *wrappedConn) Prepare(sql string) (db.Stmt, error) {
	st, err := w.conn.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return &wrappedStmt{stmt: st, conn: w}, nil
}

func (w *wrappedConn) Close() error { return w.conn.Close() }

type wrappedStmt struct {
	stmt db.Stmt
	conn *wrappedConn
}

func (s *wrappedStmt) Exec(args ...storage.Value) (*db.Result, error) {
	if err := s.conn.evalExec(); err != nil {
		return nil, err
	}
	return s.stmt.Exec(args...)
}

func (s *wrappedStmt) ExecContext(ctx context.Context, args ...storage.Value) (*db.Result, error) {
	if err := s.conn.evalExec(); err != nil {
		return nil, err
	}
	return s.stmt.ExecContext(ctx, args...)
}

func (s *wrappedStmt) Close() error { return s.stmt.Close() }
