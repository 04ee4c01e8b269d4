package storage

import (
	"fmt"
	"time"

	"feralcc/internal/anomalywatch"
)

// IsolationLevel selects the concurrency control regime for a transaction.
//
// The paper's central observation is that feral (application-level)
// validations are only correct when the database provides serializable
// isolation, while deployed databases default to weaker levels. The engine
// therefore implements the full ladder the paper discusses:
//
//   - ReadCommitted: each statement reads the latest committed state
//     (PostgreSQL's default). Writes are last-writer-wins; Lost Update and
//     phantom anomalies are both possible.
//   - RepeatableRead: transaction-lifetime snapshot reads with
//     last-writer-wins writes (MySQL InnoDB flavor). Phantoms relative to
//     the snapshot do not appear in reads, but validation-then-write races
//     remain because two transactions can each observe the other's absence.
//   - SnapshotIsolation: snapshot reads plus first-committer-wins
//     write-write conflict detection (what PostgreSQL calls REPEATABLE READ
//     since 9.1, and what Oracle labels SERIALIZABLE). Prevents Lost
//     Update but still admits Write Skew and the predicate races that break
//     feral uniqueness and association validations.
//   - Serializable: snapshot isolation plus commit-time certification of
//     row and predicate reads against concurrently committed writes
//     (optimistic, in the spirit of PostgreSQL's SSI). Conflicting
//     transactions abort with ErrSerialization. The Options.PhantomBug flag
//     disables predicate-read certification, reproducing the observable
//     behavior of PostgreSQL bug #11732, under which the paper found
//     duplicate records even under SERIALIZABLE.
//   - Serializable2PL: strict two-phase locking with multi-granularity
//     (intent) locks and value-level predicate locks. Pessimistic and
//     blocking; conflicts resolve by lock-wait timeout. Serves as the
//     known-correct baseline for the ablation benchmarks.
type IsolationLevel uint8

const (
	ReadCommitted IsolationLevel = iota
	RepeatableRead
	SnapshotIsolation
	Serializable
	Serializable2PL
)

// String returns the SQL-style name of the level.
func (l IsolationLevel) String() string {
	switch l {
	case ReadCommitted:
		return "READ COMMITTED"
	case RepeatableRead:
		return "REPEATABLE READ"
	case SnapshotIsolation:
		return "SNAPSHOT ISOLATION"
	case Serializable:
		return "SERIALIZABLE"
	case Serializable2PL:
		return "SERIALIZABLE 2PL"
	default:
		return fmt.Sprintf("IsolationLevel(%d)", uint8(l))
	}
}

// ParseIsolationLevel maps a SQL-style name to a level.
func ParseIsolationLevel(s string) (IsolationLevel, error) {
	switch normalizeSpaces(s) {
	case "READ COMMITTED":
		return ReadCommitted, nil
	case "REPEATABLE READ":
		return RepeatableRead, nil
	case "SNAPSHOT ISOLATION", "SNAPSHOT":
		return SnapshotIsolation, nil
	case "SERIALIZABLE":
		return Serializable, nil
	case "SERIALIZABLE 2PL", "SERIALIZABLE2PL":
		return Serializable2PL, nil
	default:
		return 0, fmt.Errorf("storage: unknown isolation level %q", s)
	}
}

// snapshotReads reports whether the level reads from a transaction-lifetime
// snapshot (as opposed to statement-level latest-committed reads).
func (l IsolationLevel) snapshotReads() bool {
	switch l {
	case RepeatableRead, SnapshotIsolation, Serializable:
		return true
	default:
		return false
	}
}

// firstCommitterWins reports whether write-write conflicts on the same row
// abort the later committer.
func (l IsolationLevel) firstCommitterWins() bool {
	return l == SnapshotIsolation || l == Serializable
}

// certifiesReads reports whether commit validates the read set against
// concurrently committed writes.
func (l IsolationLevel) certifiesReads() bool { return l == Serializable }

// locking reports whether the level uses pessimistic predicate/row locking.
func (l IsolationLevel) locking() bool { return l == Serializable2PL }

// Options configures a Database.
type Options struct {
	// DefaultIsolation is used by Begin when the caller does not specify a
	// level. Like PostgreSQL, the engine defaults to ReadCommitted: the
	// paper found no application that changed its database's default.
	DefaultIsolation IsolationLevel
	// LockTimeout bounds waits for row and predicate locks; expiry aborts
	// the waiter with ErrLockTimeout (the engine's deadlock resolution).
	LockTimeout time.Duration
	// PhantomBug, when true, disables predicate-read certification under
	// Serializable, reproducing PostgreSQL bug #11732 (duplicates admitted
	// under nominally serializable isolation).
	PhantomBug bool
	// FaultHook, when non-nil, is consulted at named engine fault points —
	// "commit" (before commit validation), "lock" (before a row or predicate
	// lock acquisition), and the durability seams "wal.append", "wal.fsync",
	// "wal.checkpoint", and "wal.recover". A non-nil return aborts the
	// operation with that error; the hook may also sleep to inject latency.
	// This is the storage half of the internal/faultinject seam, declared here
	// as a bare func so the engine does not depend on the injector package.
	FaultHook func(op string) error
	// DataDir, when non-empty, makes the database durable: committed
	// transactions and DDL are written to a checksummed write-ahead log in
	// this directory, and OpenDir replays it (plus the latest snapshot
	// checkpoint) before the first transaction starts. Empty keeps the engine
	// purely in-memory with no I/O on the commit path.
	DataDir string
	// SyncPolicy selects when the WAL is fsynced (see SyncAlways et al).
	// Ignored when DataDir is empty.
	SyncPolicy SyncPolicy
	// LockQueueBound bounds how many transactions may queue waiting for any
	// single lock resource. 0 (the default) keeps the queue unbounded, the
	// pre-overload-control behavior. N > 0 admits at most N waiters per
	// resource; further would-be waiters are shed immediately with
	// ErrOverloaded instead of queueing toward a timeout. Negative disables
	// waiting entirely: any acquisition that cannot be granted on the spot is
	// shed — the fully deterministic setting the overload contract tests use.
	LockQueueBound int
	// RecordHistory, when true, makes every transaction emit an operation
	// history (begins, reads with observed versions, predicate reads,
	// installed writes, commits, aborts) into an in-memory recorder readable
	// via Database.History. The histcheck package checks such histories
	// offline against Adya's isolation model; see internal/histcheck.
	RecordHistory bool
	// LiveCheck, when non-nil, attaches a live anomaly watcher
	// (internal/anomalywatch): transactions are sampled per the config's
	// seeded rate (escalating to 100% after conflict aborts), and sampled
	// transactions emit their history events into the watcher's lock-free
	// ring for incremental windowed isolation checking. Unlike RecordHistory,
	// nothing is buffered unboundedly and the commit path never blocks: a
	// full ring sheds events and counts the shed. The two options compose —
	// RecordHistory keeps the complete offline history, LiveCheck streams the
	// sampled one.
	LiveCheck *anomalywatch.Config
	// Yielder, when non-nil, puts the engine under a deterministic scheduler
	// (internal/sched) for directed concurrency testing: the engine calls
	// Yield at the Yield* progress points below and parks on the scheduler
	// where it would otherwise block (lock waits, commit-intent conflicts,
	// the writer queue, CSN turns, pipeline latches, the quiesce gate), so
	// which goroutine progresses between any two points is the scheduler's
	// decision rather than the runtime's. The state waited on is shared with
	// production: a lock waiter joins the same FIFO queue and is granted by
	// the same promotion, and only its wait parks. At every site shared
	// with FaultHook the fault hook is consulted first — a fault that aborts
	// an operation suppresses its yield (Database.point is the one place both
	// are called). Production paths carry one nil check per point and nothing
	// else.
	Yielder Yielder
}

// Yielder is the deterministic-scheduler seam (implemented by
// internal/sched.Scheduler; declared here as an interface so storage does not
// depend on the scheduler package). Calls from goroutines the scheduler does
// not manage must be no-ops (Park degrading to a bounded sleep), because
// setup code and background engine goroutines share these code paths.
type Yielder interface {
	// Yield marks arrival at a named progress point and lets the scheduler
	// pick who runs next.
	Yield(point string)
	// Park suspends until peer progress warrants re-checking the condition
	// the caller waits on (a lock grant, an earlier CSN's turn). victim
	// marks the wait abortable; a non-nil return means this task was
	// nominated to break a deadlock and must abandon the wait.
	Park(point string, victim bool) error
	// ParkExternal suspends pending progress by an unscheduled goroutine
	// (e.g. setup code, Checkpoint or Vacuum holding the quiesce gate or a
	// table latch).
	ParkExternal(point string)
}

// Yield-point names passed to Options.Yielder.Yield. Together they are the
// scheduler's yield catalog: begin, snapshot/item read, lock acquire/release,
// commit entry, commit-intent enqueue, install, and the WAL seams. At the
// sites shared with FaultHook (lock, commit and the wal.* points) the same
// constant is the op the fault hook receives.
const (
	YieldBegin         = "begin"
	YieldRead          = "read"
	YieldLock          = "lock"
	YieldLockRelease   = "lock.release"
	YieldCommit        = "commit"
	YieldEnqueue       = "commit.enqueue"
	YieldInstall       = "commit.install"
	YieldWALAppend     = "wal.append"
	YieldWALFsync      = "wal.fsync"
	YieldWALCheckpoint = "wal.checkpoint"
	YieldWALRecover    = "wal.recover"
)

// Park-point names passed to Options.Yielder.Park/ParkExternal, identifying
// which blocking wait parks on the scheduler instead.
const (
	ParkLockWait  = "lock.wait"
	ParkLatch     = "commit.latch"
	ParkConflict  = "commit.conflict"
	ParkTurn      = "commit.turn"
	ParkFsyncWait = "commit.fsyncwait"
	ParkGate      = "commit.gate"
)

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.LockTimeout <= 0 {
		o.LockTimeout = 2 * time.Second
	}
	return o
}

func normalizeSpaces(s string) string {
	out := make([]byte, 0, len(s))
	space := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			space = len(out) > 0
			continue
		}
		if space {
			out = append(out, ' ')
			space = false
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		out = append(out, c)
	}
	return string(out)
}
