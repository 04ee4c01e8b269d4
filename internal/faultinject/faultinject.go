// Package faultinject is a deterministic, seedable fault-injection layer for
// the wire–db–ORM stack. Named injection points are threaded through the wire
// client and server, the embedded connection, the storage engine's commit and
// lock paths, and the application server; a test (or feralbench run) arms an
// Injector with per-point rules and every layer consults it at its seams.
//
// Determinism is the design center, following the CLOTHO observation that
// weakly-consistent application bugs are found by *directed, replayable*
// perturbation rather than wall-clock randomness: the decision for the n-th
// evaluation of a point is a pure function of (seed, point, n), so a failing
// chaos run replays exactly from its seed regardless of goroutine scheduling
// (the multiset of decisions per point is fixed; only their assignment to
// racing callers varies).
//
// Evaluation order is part of the contract, pinned by order_test.go. Within
// one point, rules are evaluated in Arm order and at most one fires per
// evaluation — first firing rule wins. When one statement crosses several
// points, they are consulted in the engine's execution order: a commit
// evaluates storage.commit before validation, then storage.wal.append inside
// the log critical section, then storage.wal.fsync (under SyncAlways); a
// failing fault at an earlier point aborts the statement before later points
// are evaluated at all, so their sequence numbers do not advance. At every
// shared site the engine consults the fault hook before the scheduler yield
// point, so injected faults depend only on (seed, point, n) — never on the
// schedule a deterministic hunt chooses.
package faultinject

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"feralcc/internal/storage"
)

// Standard injection point names. Layers pass these to Injector.Eval at their
// seams; specs and tests arm rules against them.
const (
	// PointClientSend fires in the wire client before a request frame is
	// written. Faults here are request-path: the statement has not executed,
	// so retrying it is safe.
	PointClientSend = "wire.client.send"
	// PointClientRecv fires in the wire client after the request was flushed,
	// before the response is read. Faults here lose responses to statements
	// that DID execute — retries are at-least-once.
	PointClientRecv = "wire.client.recv"
	// PointServerRead fires in the wire server after a frame is read, before
	// it is decoded.
	PointServerRead = "wire.server.read"
	// PointServerExec fires in the wire server after decoding, before the
	// statement executes. Forced aborts here are retry-safe.
	PointServerExec = "wire.server.exec"
	// PointServerWrite fires in the wire server before the response frame is
	// written.
	PointServerWrite = "wire.server.write"
	// PointDBExec fires in the embedded connection (and the Spec conn
	// wrapper) before a statement executes.
	PointDBExec = "db.exec"
	// PointStorageCommit fires inside Tx.Commit before validation.
	PointStorageCommit = "storage.commit"
	// PointStorageLock fires before a row/predicate lock acquisition.
	PointStorageLock = "storage.lock"
	// PointWALAppend fires inside the commit/DDL critical section before a
	// record is written to the write-ahead log. A failure here aborts the
	// commit with nothing installed and nothing logged.
	PointWALAppend = "storage.wal.append"
	// PointWALFsync fires before the log file is fsynced. A failure here
	// aborts the commit and rolls the log back to its pre-append length.
	PointWALFsync = "storage.wal.fsync"
	// PointWALCheckpoint fires at the start of a snapshot checkpoint, before
	// any state is captured.
	PointWALCheckpoint = "storage.wal.checkpoint"
	// PointWALRecover fires at the start of OpenDir recovery and again before
	// each replayed record, so chaos suites can kill recovery mid-replay.
	PointWALRecover = "storage.wal.recover"
)

// points is the set of standard point names a Spec may arm.
var points = map[string]bool{
	PointClientSend: true, PointClientRecv: true,
	PointServerRead: true, PointServerExec: true, PointServerWrite: true,
	PointDBExec: true, PointStorageCommit: true, PointStorageLock: true,
	PointWALAppend: true, PointWALFsync: true, PointWALCheckpoint: true, PointWALRecover: true,
}

// Kind enumerates the fault classes the injector can produce.
type Kind uint8

const (
	// KindLatency delays the operation by Rule.Latency.
	KindLatency Kind = iota
	// KindDrop severs the connection (or, for embedded stacks, discards the
	// session's transaction state and errors like a lost connection).
	KindDrop
	// KindTruncate writes a partial frame and then severs the connection —
	// the mid-frame drop case the codec must never desync or hang on.
	KindTruncate
	// KindError fails the operation with Rule.Err (or a generic error).
	KindError
	// KindSerialization fails the operation with storage.ErrSerialization,
	// forcing the retry path a real first-committer-wins abort would take.
	KindSerialization
	// KindDeadlock fails the operation with storage.ErrLockTimeout, the
	// engine's deadlock-victim verdict.
	KindDeadlock
)

// String returns the spec-file name of the kind.
func (k Kind) String() string {
	switch k {
	case KindLatency:
		return "latency"
	case KindDrop:
		return "drop"
	case KindTruncate:
		return "truncate"
	case KindError:
		return "error"
	case KindSerialization:
		return "abort"
	case KindDeadlock:
		return "deadlock"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Rule arms one fault kind at one point.
type Rule struct {
	Kind Kind
	// Rate is the per-evaluation firing probability in [0, 1].
	Rate float64
	// Latency is the injected delay for KindLatency.
	Latency time.Duration
	// Err overrides the injected error for KindError.
	Err error
	// Limit caps total fires of this rule (0 = unlimited). Useful for "sever
	// the connection exactly twice" scripts.
	Limit uint64
}

// Fault is one fired fault. The consuming layer interprets Kind; Error
// supplies the taxonomy error for kinds that fail the operation.
type Fault struct {
	Point   string
	Kind    Kind
	Latency time.Duration
	err     error
}

// ErrInjected is the sentinel wrapped by every injected failure, so tests can
// distinguish injected faults from organic ones with errors.Is.
var ErrInjected = fmt.Errorf("faultinject: injected fault")

// injectedError carries the taxonomy classification for an injected failure.
type injectedError struct {
	kind Kind
	base error // sentinel the fault masquerades as (may be nil)
}

func (e *injectedError) Error() string {
	if e.base != nil {
		return fmt.Sprintf("%v (injected %s)", e.base, e.kind)
	}
	return fmt.Sprintf("injected %s fault", e.kind)
}

// Unwrap exposes both ErrInjected and the masqueraded sentinel to errors.Is.
func (e *injectedError) Unwrap() []error {
	if e.base != nil {
		return []error{ErrInjected, e.base}
	}
	return []error{ErrInjected}
}

// Retryable classifies injected faults for the db-layer taxonomy: everything
// the injector produces models a transient infrastructure failure.
func (e *injectedError) Retryable() bool { return true }

// Error returns the failure the fired fault stands for, or nil for kinds
// (latency) that do not fail the operation. Drop and truncate faults return
// nil too: the layer that owns the connection produces its own
// connection-loss error after severing it.
func (f *Fault) Error() error {
	switch f.Kind {
	case KindError:
		return &injectedError{kind: f.Kind, base: f.err}
	case KindSerialization:
		return &injectedError{kind: f.Kind, base: storage.ErrSerialization}
	case KindDeadlock:
		return &injectedError{kind: f.Kind, base: storage.ErrLockTimeout}
	default:
		return nil
	}
}

// PointStats are cumulative counters for one injection point.
type PointStats struct {
	Evals uint64
	Fires map[Kind]uint64
}

// point is the armed state of one injection point.
type point struct {
	rules []Rule
	seq   uint64
	fires map[Kind]uint64
}

// FiredFault is the ledger entry for one fired fault: which point, which
// kind, and the trace ID of the statement it hit (0 when the firing layer
// had no statement in hand — e.g. a background fsync).
type FiredFault struct {
	Point   string
	Kind    Kind
	TraceID uint64
}

// firedLedgerCap bounds the fired-fault ledger; older entries are dropped
// first, as chaos assertions care about recent pairings.
const firedLedgerCap = 4096

// Injector evaluates armed rules at named points. A nil *Injector is valid
// and never fires, so production paths carry one pointer and no branches
// beyond a nil check.
type Injector struct {
	seed  int64
	mu    sync.Mutex
	pts   map[string]*point
	fired []FiredFault
	logf  func(format string, args ...any)
}

// New creates an injector whose decisions derive entirely from seed.
func New(seed int64) *Injector {
	return &Injector{seed: seed, pts: make(map[string]*point)}
}

// Seed returns the injector's seed (for replay reporting).
func (in *Injector) Seed() int64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// Arm replaces the rules at a point.
func (in *Injector) Arm(pointName string, rules ...Rule) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.pts[pointName] = &point{rules: rules, fires: make(map[Kind]uint64)}
}

// Disarm removes all rules at a point.
func (in *Injector) Disarm(pointName string) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.pts, pointName)
}

// SetLogf installs a logger that receives one line per fired fault, carrying
// the trace ID of the statement the fault hit — the fault-side half of the
// slow-query log's trace correlation.
func (in *Injector) SetLogf(logf func(format string, args ...any)) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.logf = logf
}

// Fired returns a copy of the fired-fault ledger (most recent last).
func (in *Injector) Fired() []FiredFault {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]FiredFault(nil), in.fired...)
}

// Eval draws the next decision for a point. It returns nil when no rule
// fires. At most one rule fires per evaluation: each armed rule consumes an
// independent deterministic draw, first firing rule wins, in Arm order.
func (in *Injector) Eval(pointName string) *Fault {
	return in.EvalTraced(pointName, 0)
}

// EvalTraced is Eval for layers that know which statement they are executing:
// a fired fault is recorded (and logged) with the statement's trace ID, so a
// chaos run can pair every injected failure with the statement it hit.
// The trace ID does not participate in the deterministic draw — replays fire
// the same faults regardless of who carries them.
func (in *Injector) EvalTraced(pointName string, traceID uint64) *Fault {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	p := in.pts[pointName]
	if p == nil {
		in.mu.Unlock()
		return nil
	}
	n := p.seq
	p.seq++
	var fired *Rule
	for i := range p.rules {
		r := &p.rules[i]
		if r.Rate <= 0 {
			continue
		}
		if r.Limit > 0 && p.fires[r.Kind] >= r.Limit {
			continue
		}
		if drawFloat(in.seed, pointName, uint64(i), n) < r.Rate {
			fired = r
			p.fires[r.Kind]++
			break
		}
	}
	var logf func(string, ...any)
	if fired != nil {
		in.fired = append(in.fired, FiredFault{Point: pointName, Kind: fired.Kind, TraceID: traceID})
		if len(in.fired) > firedLedgerCap {
			in.fired = in.fired[len(in.fired)-firedLedgerCap:]
		}
		logf = in.logf
	}
	in.mu.Unlock()
	if fired == nil {
		return nil
	}
	if logf != nil {
		logf("faultinject: %s fired at %s trace=%016x", fired.Kind, pointName, traceID)
	}
	return &Fault{Point: pointName, Kind: fired.Kind, Latency: fired.Latency, err: fired.Err}
}

// Stats snapshots per-point counters, keyed by point name.
func (in *Injector) Stats() map[string]PointStats {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]PointStats, len(in.pts))
	for name, p := range in.pts {
		fires := make(map[Kind]uint64, len(p.fires))
		for k, v := range p.fires {
			fires[k] = v
		}
		out[name] = PointStats{Evals: p.seq, Fires: fires}
	}
	return out
}

// Summary renders fired-fault counts as a stable one-line string, for logs.
func (in *Injector) Summary() string {
	stats := in.Stats()
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	var b []byte
	for _, name := range names {
		st := stats[name]
		kinds := make([]Kind, 0, len(st.Fires))
		for k := range st.Fires {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
		for _, k := range kinds {
			if len(b) > 0 {
				b = append(b, ' ')
			}
			b = append(b, fmt.Sprintf("%s:%s=%d", name, k, st.Fires[k])...)
		}
	}
	if len(b) == 0 {
		return "no faults fired"
	}
	return string(b)
}

// EngineHook adapts the injector to the storage engine's Options.FaultHook
// seam: "commit" maps to PointStorageCommit, "lock" to PointStorageLock, and
// the durability ops "wal.append" / "wal.fsync" / "wal.checkpoint" /
// "wal.recover" to the PointWAL* points. Latency faults sleep in place;
// failing kinds return their taxonomy error.
func (in *Injector) EngineHook() func(op string) error {
	if in == nil {
		return nil
	}
	return func(op string) error {
		var pt string
		switch op {
		case "commit":
			pt = PointStorageCommit
		case "lock":
			pt = PointStorageLock
		case "wal.append":
			pt = PointWALAppend
		case "wal.fsync":
			pt = PointWALFsync
		case "wal.checkpoint":
			pt = PointWALCheckpoint
		case "wal.recover":
			pt = PointWALRecover
		default:
			pt = "storage." + op
		}
		f := in.Eval(pt)
		if f == nil {
			return nil
		}
		if f.Kind == KindLatency {
			time.Sleep(f.Latency)
			return nil
		}
		return f.Error()
	}
}

// --- deterministic draws ------------------------------------------------------

// drawFloat returns a uniform float64 in [0, 1) that is a pure function of
// its inputs: the n-th draw for rule i at a point is fixed by the seed.
func drawFloat(seed int64, pointName string, rule, n uint64) float64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(pointName); i++ {
		h ^= uint64(pointName[i])
		h *= 0x100000001b3
	}
	h ^= rule * 0xff51afd7ed558ccd
	h ^= n
	return float64(splitmix64(h)>>11) / (1 << 53)
}

// splitmix64 is the finalizer of the SplitMix64 generator: a full-avalanche
// mix so consecutive sequence numbers decorrelate.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
