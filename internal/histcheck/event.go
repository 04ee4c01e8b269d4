// Package histcheck records per-transaction operation histories and checks
// them against Adya's dependency-graph isolation model, offline or live.
//
// The storage engine (behind Options.RecordHistory) appends one Event per
// transaction begin, item read, predicate read, installed write, commit, and
// abort. Graph builds the direct serialization graph from those events one at
// a time — ww (write-dependency), wr (read-dependency), and rw
// (anti-dependency) edges over the per-row version order — and classifies it
// for Adya's phenomena: G0, G1a, G1b, G1c, G-single, and G2-item. Check feeds
// a Graph a complete history and classifies once at the end, so a history is
// PASS or FAIL against the isolation level its transactions ran under, with a
// human-readable cycle witness for every anomaly found; the live watcher
// (internal/anomalywatch) feeds the same Graph sampled events as they happen.
//
// The package deliberately imports nothing from the rest of the repository,
// so the storage engine can emit events directly and every layer above
// (db, wire, bench, cmd/feralcheck) can consume them.
package histcheck

import "sync"

// EventKind names one history record type. Kinds are strings so JSONL
// histories read naturally and survive schema evolution.
type EventKind string

const (
	// KindBegin opens a transaction; Level carries its isolation level.
	KindBegin EventKind = "begin"
	// KindRead is an item read: Table/Row name the item, Observed is the
	// begin timestamp of the version the read returned (0 when the item was
	// absent or invisible), and Own marks a read of the transaction's own
	// buffered write.
	KindRead EventKind = "read"
	// KindPredRead is a predicate read (a scan); Pred is the predicate key.
	KindPredRead EventKind = "predread"
	// KindWrite is an installed write: Op is insert/update/delete and
	// Version is the begin timestamp of the installed version (the writer's
	// commit timestamp). Writes of aborted transactions, when a history
	// contains them (the engine never installs any), carry the version their
	// dirty write would have exposed — that is what makes G1a expressible.
	KindWrite EventKind = "write"
	// KindCommit closes a transaction successfully.
	KindCommit EventKind = "commit"
	// KindAbort closes a transaction unsuccessfully; Reason says why.
	KindAbort EventKind = "abort"
)

// Event is one history record. The zero value of every optional field is
// omitted from its JSONL form.
type Event struct {
	Seq      uint64    `json:"seq"`
	Tx       uint64    `json:"tx"`
	Kind     EventKind `json:"kind"`
	Level    string    `json:"level,omitempty"`
	Table    string    `json:"table,omitempty"`
	Row      uint64    `json:"row,omitempty"`
	Op       string    `json:"op,omitempty"`
	Observed uint64    `json:"observed,omitempty"`
	Own      bool      `json:"own,omitempty"`
	Version  uint64    `json:"version,omitempty"`
	Pred     string    `json:"pred,omitempty"`
	Reason   string    `json:"reason,omitempty"`
	// Trace carries the obs statement trace ID active when the event was
	// emitted, linking an anomaly witness back to its spans and slow-query log
	// lines. Only the live anomaly watcher populates it: recorded histories
	// (Options.RecordHistory) leave it zero so fixed-schedule histories stay
	// byte-identical, which the scheduler determinism suite pins.
	Trace uint64 `json:"trace,omitempty"`
}

// Recorder is an append-only, concurrency-safe event log.
type Recorder struct {
	mu     sync.Mutex
	seq    uint64
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Append stamps e with the next sequence number and stores it.
func (r *Recorder) Append(e Event) {
	r.mu.Lock()
	r.seq++
	e.Seq = r.seq
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Events returns a copy of the recorded history in append order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Reset discards all recorded events (the sequence keeps counting, so
// events appended after a Reset never collide with ones captured before).
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.events = nil
	r.mu.Unlock()
}
