package storage

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"feralcc/internal/anomalywatch"
	"feralcc/internal/histcheck"
	"feralcc/internal/obs"
)

// writeOp distinguishes buffered write kinds.
type writeOp uint8

const (
	opInsert writeOp = iota
	opUpdate
	opDelete
)

// txWrite is one buffered row write. vals is the full new row image for
// inserts and updates.
type txWrite struct {
	op   writeOp
	vals []Value
	old  []Value // prior committed image (update/delete); nil for insert
	seq  int     // execution order, to keep installs deterministic
}

// Tx is a transaction handle. A Tx must be used from one goroutine at a
// time (connections in the layers above enforce this), but separate
// transactions may run fully concurrently.
type Tx struct {
	db      *Database
	id      uint64
	level   IsolationLevel
	startTS uint64
	done    bool
	seq     int

	writes map[string]map[RowID]*txWrite // lower table name -> row writes

	// Read footprint, tracked only when the level certifies reads.
	readRows  map[string]struct{}
	readPreds map[string]struct{}

	// probes records the committed-state lookups commit validation performed
	// (unique-key probes, FK parent probes, cascade child probes), in summary
	// predicate-key format. The pipeline's registration conflict check tests
	// them against pending commit intents: a pending install that would change
	// a probe's answer forces this transaction to wait and revalidate.
	probes map[string]struct{}

	tookLocks bool

	// sampled marks the transaction as selected for live anomaly checking:
	// every history event it generates is also offered (never blocking) to
	// the database's anomalywatch ring. Decided once at Begin.
	sampled bool

	// stmtDeadline bounds the currently executing statement (zero = none).
	// Set from the caller's context deadline; lock waits respect it and
	// expiry surfaces as ErrStmtDeadline.
	stmtDeadline time.Time

	// trace, when non-nil, accumulates span timings (lock wait, commit, WAL
	// append/fsync) for the statement currently driving this transaction.
	// StmtTrace methods are nil-safe, so untraced paths cost one nil check.
	trace *obs.StmtTrace
}

// ID returns the transaction's unique id.
func (tx *Tx) ID() uint64 { return tx.id }

// Database returns the database this transaction belongs to.
func (tx *Tx) Database() *Database { return tx.db }

// Isolation returns the transaction's isolation level.
func (tx *Tx) Isolation() IsolationLevel { return tx.level }

// readTS returns the snapshot timestamp for a read starting now.
func (tx *Tx) readTS() uint64 {
	if tx.level.snapshotReads() {
		return tx.startTS
	}
	return atomic.LoadUint64(&tx.db.clock)
}

func (tx *Tx) checkLive() error {
	if tx.done {
		return ErrTxDone
	}
	return nil
}

// tableWrites returns the write buffer for a table, creating it on demand.
func (tx *Tx) tableWrites(lower string) map[RowID]*txWrite {
	m := tx.writes[lower]
	if m == nil {
		m = make(map[RowID]*txWrite)
		tx.writes[lower] = m
	}
	return m
}

// noteRowRead records a row in the certification read set.
func (tx *Tx) noteRowRead(lowerTable string, id RowID) {
	if !tx.level.certifiesReads() {
		return
	}
	if tx.readRows == nil {
		tx.readRows = make(map[string]struct{})
	}
	tx.readRows[lowerTable+"\x00"+formatRowID(id)] = struct{}{}
}

// notePredRead records a predicate in the certification read set.
func (tx *Tx) notePredRead(key string) {
	if !tx.level.certifiesReads() {
		return
	}
	if tx.readPreds == nil {
		tx.readPreds = make(map[string]struct{})
	}
	tx.readPreds[key] = struct{}{}
}

// noteProbe records one committed-state validation lookup under its summary
// predicate key (table.predKey).
func (tx *Tx) noteProbe(predKey string) {
	if tx.probes == nil {
		tx.probes = make(map[string]struct{})
	}
	tx.probes[predKey] = struct{}{}
}

// SetStmtDeadline bounds the next statement(s) run in this transaction: lock
// waits stop at the deadline with ErrStmtDeadline instead of waiting out the
// full lock timeout. A zero time clears the bound.
func (tx *Tx) SetStmtDeadline(t time.Time) { tx.stmtDeadline = t }

// SetTrace attaches (or detaches, with nil) the statement trace that lock
// waits and the commit path accumulate spans into.
func (tx *Tx) SetTrace(tr *obs.StmtTrace) { tx.trace = tr }

// emit is the transaction's one event sink: the offline recorder when the
// database records history and, when this transaction was sampled, the live
// anomaly watcher. The trace ID is stamped only on the live copy, never into
// the Recorder, so recorded histories stay byte-stable for fixed schedules.
// Offer never blocks; a full ring sheds the event.
func (tx *Tx) emit(e histcheck.Event) {
	if h := tx.db.hist; h != nil {
		h.Append(e)
	}
	if tx.sampled {
		if tx.trace != nil {
			e.Trace = tx.trace.ID
		}
		tx.db.watch.Offer(e)
	}
}

// recording reports whether emit has a sink, for the sites whose events cost
// something to build.
func (tx *Tx) recording() bool { return tx.db.hist != nil || tx.sampled }

// histRead records an item read in the operation history. observed is the
// begin timestamp of the version the read returned (0 = absent/invisible);
// own marks reads served from the transaction's own write buffer.
func (tx *Tx) histRead(lower string, id RowID, observed uint64, own bool) {
	tx.emit(histcheck.Event{
		Tx: tx.id, Kind: histcheck.KindRead,
		Table: lower, Row: uint64(id), Observed: observed, Own: own,
	})
}

// recordCommitEvents emits one write event per installed row, then the commit
// event. Called immediately after install, before the clock publish and still
// inside the commit's install turn, so a history snapshot can never observe an
// installed version before the event that explains it — and so per-row
// install events reach the live watcher in commit-sequence order, which is
// what lets it maintain the version order incrementally.
func (tx *Tx) recordCommitEvents(commitTS uint64) {
	if !tx.recording() {
		return
	}
	type rec struct {
		lower string
		id    RowID
		w     *txWrite
	}
	recs := make([]rec, 0, 8)
	for lower, rows := range tx.writes {
		for id, w := range rows {
			recs = append(recs, rec{lower: lower, id: id, w: w})
		}
	}
	// Emit in execution order (txWrite.seq), not map order: recorded
	// histories must be byte-stable for a fixed schedule, which is what the
	// deterministic-scheduler determinism test pins.
	sort.Slice(recs, func(i, j int) bool { return recs[i].w.seq < recs[j].w.seq })
	for _, r := range recs {
		op := "insert"
		switch r.w.op {
		case opUpdate:
			op = "update"
		case opDelete:
			op = "delete"
		}
		tx.emit(histcheck.Event{
			Tx: tx.id, Kind: histcheck.KindWrite,
			Table: r.lower, Row: uint64(r.id), Op: op, Version: commitTS,
		})
	}
	tx.emit(histcheck.Event{Tx: tx.id, Kind: histcheck.KindCommit})
}

// lock acquires a lock for this transaction, remembering that cleanup is
// needed at finish. The lock point comes first, so chaos tests can nominate
// this transaction as a deadlock victim deterministically.
func (tx *Tx) lock(key string, mode LockMode) error {
	if err := tx.db.point(YieldLock); err != nil {
		return err
	}
	tx.tookLocks = true
	return tx.db.locks.acquire(tx.id, key, mode, tx.stmtDeadline, tx.trace)
}

// buildRow materializes a full row image from a column-value map, applying
// defaults, auto-assigning the primary key, and checking types and NOT NULL.
func buildRow(t *table, cols map[string]Value) ([]Value, error) {
	s := t.schema
	vals := make([]Value, len(s.Columns))
	for name, v := range cols {
		pos := s.ColumnIndex(name)
		if pos < 0 {
			return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, s.Name, name)
		}
		cv, ok := v.CoerceTo(s.Columns[pos].Kind)
		if !ok {
			return nil, fmt.Errorf("%w: column %s.%s is %s, got %s",
				ErrTypeMismatch, s.Name, name, s.Columns[pos].Kind, v.Kind)
		}
		vals[pos] = cv
	}
	for i := range s.Columns {
		c := &s.Columns[i]
		if vals[i].IsNull() {
			if _, provided := lookupCol(cols, c.Name); !provided && !c.Default.IsNull() {
				vals[i] = c.Default
			}
		}
		if vals[i].IsNull() && c.PrimaryKey {
			vals[i] = Int(t.allocID())
		} else if c.PrimaryKey && vals[i].Kind == KindInt {
			t.bumpID(vals[i].I)
		}
		if vals[i].IsNull() && c.NotNull {
			return nil, fmt.Errorf("%w: %s.%s", ErrNotNull, s.Name, c.Name)
		}
	}
	return vals, nil
}

func lookupCol(cols map[string]Value, name string) (Value, bool) {
	if v, ok := cols[name]; ok {
		return v, true
	}
	for k, v := range cols {
		if strings.EqualFold(k, name) {
			return v, true
		}
	}
	return Value{}, false
}

// Insert buffers a new row and returns its RowID and primary-key value
// (0 when the table has no primary key column).
func (tx *Tx) Insert(tableName string, cols map[string]Value) (RowID, int64, error) {
	if err := tx.checkLive(); err != nil {
		return 0, 0, err
	}
	t, err := tx.db.lookupTable(tableName)
	if err != nil {
		return 0, 0, err
	}
	vals, err := buildRow(t, cols)
	if err != nil {
		return 0, 0, err
	}
	id := t.allocRow()
	if tx.level.locking() {
		if err := tx.lockForWrite(t, id, nil, vals); err != nil {
			return 0, 0, err
		}
	}
	tx.seq++
	tx.tableWrites(t.lower)[id] = &txWrite{op: opInsert, vals: vals, seq: tx.seq}
	var pk int64
	if pkCol := t.schema.PrimaryKey(); pkCol != "" {
		pk = vals[t.schema.ColumnIndex(pkCol)].I
	}
	return id, pk, nil
}

// Update buffers changes to an existing row. The row must be visible to the
// transaction (via a prior Scan) or buffered by it.
func (tx *Tx) Update(tableName string, id RowID, changes map[string]Value) error {
	if err := tx.checkLive(); err != nil {
		return err
	}
	t, err := tx.db.lookupTable(tableName)
	if err != nil {
		return err
	}
	s := t.schema
	newImage := make([]Value, len(s.Columns))
	applyChanges := func(base []Value) error {
		copy(newImage, base)
		for name, v := range changes {
			pos := s.ColumnIndex(name)
			if pos < 0 {
				return fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, s.Name, name)
			}
			cv, ok := v.CoerceTo(s.Columns[pos].Kind)
			if !ok {
				return fmt.Errorf("%w: column %s.%s is %s, got %s",
					ErrTypeMismatch, s.Name, name, s.Columns[pos].Kind, v.Kind)
			}
			if cv.IsNull() && s.Columns[pos].NotNull {
				return fmt.Errorf("%w: %s.%s", ErrNotNull, s.Name, s.Columns[pos].Name)
			}
			newImage[pos] = cv
		}
		return nil
	}

	lower := t.lower
	if w, ok := tx.tableWrites(lower)[id]; ok {
		switch w.op {
		case opDelete:
			return fmt.Errorf("%w: %s row %d (deleted in this transaction)", ErrNoSuchRow, s.Name, id)
		default:
			if err := applyChanges(w.vals); err != nil {
				return err
			}
			if tx.level.locking() {
				if err := tx.lockForWrite(t, id, w.vals, newImage); err != nil {
					return err
				}
			}
			w.vals = newImage
			return nil
		}
	}

	// Writers serialize on the row lock at execute time, as real engines do;
	// lost updates under RC/RR come from unlocked *reads*, not torn writes.
	if err := tx.lock(rowLockKey(lower, id), LockX); err != nil {
		return err
	}
	old, _, live := t.latestCommitted(id)
	if old == nil || !live {
		return fmt.Errorf("%w: %s row %d", ErrNoSuchRow, s.Name, id)
	}
	if err := applyChanges(old); err != nil {
		return err
	}
	if tx.level.locking() {
		if err := tx.lockForWrite(t, id, old, newImage); err != nil {
			return err
		}
	}
	tx.seq++
	tx.tableWrites(lower)[id] = &txWrite{op: opUpdate, vals: newImage, old: old, seq: tx.seq}
	return nil
}

// Delete buffers removal of a row.
func (tx *Tx) Delete(tableName string, id RowID) error {
	if err := tx.checkLive(); err != nil {
		return err
	}
	t, err := tx.db.lookupTable(tableName)
	if err != nil {
		return err
	}
	lower := t.lower
	if w, ok := tx.tableWrites(lower)[id]; ok {
		switch w.op {
		case opInsert:
			delete(tx.tableWrites(lower), id)
			return nil
		case opDelete:
			return fmt.Errorf("%w: %s row %d (deleted in this transaction)", ErrNoSuchRow, t.schema.Name, id)
		default:
			if tx.level.locking() {
				if err := tx.lockForWrite(t, id, w.old, nil); err != nil {
					return err
				}
			}
			w.op = opDelete
			w.vals = nil
			return nil
		}
	}
	if err := tx.lock(rowLockKey(lower, id), LockX); err != nil {
		return err
	}
	old, _, live := t.latestCommitted(id)
	if old == nil || !live {
		return fmt.Errorf("%w: %s row %d", ErrNoSuchRow, t.schema.Name, id)
	}
	if tx.level.locking() {
		if err := tx.lockForWrite(t, id, old, nil); err != nil {
			return err
		}
	}
	tx.seq++
	tx.tableWrites(lower)[id] = &txWrite{op: opDelete, old: old, seq: tx.seq}
	return nil
}

// lockForWrite acquires the Serializable2PL locks protecting a row write:
// an intent-exclusive table lock plus exclusive predicate locks covering
// every (column, value) pair of the old and new images.
func (tx *Tx) lockForWrite(t *table, id RowID, old, new []Value) error {
	if err := tx.lock(t.tableKey, LockIX); err != nil {
		return err
	}
	if err := tx.lock(rowLockKey(t.lower, id), LockX); err != nil {
		return err
	}
	for i := range t.schema.Columns {
		if old != nil {
			if err := tx.lock(t.predKey(i, old[i].Key()), LockX); err != nil {
				return err
			}
		}
		if new != nil {
			if err := tx.lock(t.predKey(i, new[i].Key()), LockX); err != nil {
				return err
			}
		}
	}
	return nil
}

// EqFilter is an optional equality predicate pushed down into Scan so the
// engine can use a secondary index. Residual predicates are the caller's
// concern.
type EqFilter struct {
	Column string
	Value  Value
}

// ScanOptions configures a Scan.
type ScanOptions struct {
	// Filter, when non-nil, restricts the scan to rows whose column equals
	// the value (index-accelerated when an index exists).
	Filter *EqFilter
	// ForUpdate acquires exclusive row locks on matching rows and re-reads
	// their latest committed images, as SELECT ... FOR UPDATE does.
	ForUpdate bool
}

// Scan streams the rows visible to the transaction, merged with the
// transaction's own writes, in ascending RowID order. fn returns false to
// stop early. The slice passed to fn is owned by the callee.
//
// The table lock is held only inside scanStep, one chunk at a time; row
// locks, read-set notes, history events, scheduler yields and fn all run
// between steps with no table lock held.
func (tx *Tx) Scan(tableName string, opts ScanOptions, fn func(RowID, []Value) bool) error {
	if err := tx.checkLive(); err != nil {
		return err
	}
	tx.db.yield(YieldRead)
	t, err := tx.db.lookupTable(tableName)
	if err != nil {
		return err
	}
	lower := t.lower

	filterPos := -1
	var filter Value
	var filterKey string
	predKey := t.tableKey
	if opts.Filter != nil {
		filterPos = t.schema.ColumnIndex(opts.Filter.Column)
		if filterPos < 0 {
			return fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, t.schema.Name, opts.Filter.Column)
		}
		filter, filterKey = opts.Filter.Value, opts.Filter.Value.Key()
		predKey = t.predKey(filterPos, filterKey)
	}

	// Predicate footprint: record for certification, and lock under 2PL.
	tx.notePredRead(predKey)
	if tx.recording() {
		tx.emit(histcheck.Event{
			Tx: tx.id, Kind: histcheck.KindPredRead, Table: lower,
			Pred: strings.ReplaceAll(predKey, "\x00", "/"),
		})
	}
	if tx.level.locking() {
		if filterPos < 0 {
			if err := tx.lock(t.tableKey, LockS); err != nil {
				return err
			}
		} else {
			if err := tx.lock(t.tableKey, LockIS); err != nil {
				return err
			}
			if err := tx.lock(predKey, LockS); err != nil {
				return err
			}
		}
	}

	// The scan's source: the filter column's index bucket when it has one,
	// else the heap itself. Own writes the source does not cover — inserts an
	// index cannot know about, slots past the end of the heap — are merged in
	// by id, so rows come out ascending either way.
	writes := tx.writes[lower]
	var cands []RowID
	listed := false
	if filterPos >= 0 {
		if cands, listed = t.indexCandidates(filterPos, filterKey); listed && len(writes) > 0 {
			cands = append(cands, ownRowIDs(writes, 0)...)
			slices.Sort(cands)
			cands = slices.Compact(cands)
		}
	}
	ts := tx.readTS()

	emit := func(h scanHit) (bool, error) {
		vals, observed := h.vals, h.observed
		if opts.ForUpdate {
			if err := tx.lock(rowLockKey(lower, h.id), LockX); err != nil {
				return false, err
			}
			// Re-read the latest committed image now that the row is locked:
			// a concurrent writer may have committed while we waited. Rows
			// written by this transaction keep their buffered image.
			if !h.own {
				latest, ver, live := t.latestCommitted(h.id)
				if latest == nil || !live || (filterPos >= 0 && !sqlEqual(&latest[filterPos], &filter)) {
					return true, nil
				}
				vals, observed = latest, ver
			}
		}
		tx.noteRowRead(lower, h.id)
		if tx.level.locking() && !opts.ForUpdate {
			if err := tx.lock(rowLockKey(lower, h.id), LockS); err != nil {
				return false, err
			}
		}
		tx.histRead(lower, h.id, observed, h.own)
		return fn(h.id, slices.Clone(vals)), nil
	}

	var buf [8]scanHit
	next := 1 // heap slot 0 is never used
	if listed {
		next = 0
	}
	for done := false; !done; {
		var hits []scanHit
		hits, next, done = t.scanStep(cands, listed, next, ts, writes, filterPos, filter, buf[:0])
		for _, h := range hits {
			if cont, err := emit(h); err != nil || !cont {
				return err
			}
		}
		if done && !listed && len(writes) > 0 {
			// The heap walk met every own write in a slot below its end; the
			// rest (next is that end) follow as a listed source.
			cands, listed, next, done = ownRowIDs(writes, RowID(next)), true, 0, false
		}
	}
	return nil
}

// ownRowIDs returns, ascending, the ids of the buffered writes at or above from.
func ownRowIDs(writes map[RowID]*txWrite, from RowID) []RowID {
	ids := make([]RowID, 0, len(writes))
	for id := range writes {
		if id >= from {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// Get returns the row with the given RowID as visible to the transaction,
// or nil when invisible or absent.
func (tx *Tx) Get(tableName string, id RowID) ([]Value, error) {
	if err := tx.checkLive(); err != nil {
		return nil, err
	}
	tx.db.yield(YieldRead)
	t, err := tx.db.lookupTable(tableName)
	if err != nil {
		return nil, err
	}
	lower := t.lower
	if w, ok := tx.writes[lower][id]; ok {
		if w.op == opDelete {
			return nil, nil
		}
		tx.noteRowRead(lower, id)
		tx.histRead(lower, id, 0, true)
		return slices.Clone(w.vals), nil
	}
	// Point reads lock under 2PL exactly as scans do (Scan takes LockS per
	// visited row): without this, a Get-then-Update read-modify-write slips
	// through the lock protocol and loses updates even at Serializable2PL.
	// The gap survived every wall-clock stress run — the deterministic
	// scheduler's almost-cycle-closing delay found it in one schedule.
	if tx.level.locking() {
		if err := tx.lock(rowLockKey(lower, id), LockS); err != nil {
			return nil, err
		}
	}
	vals, observed := t.readVisibleVersion(id, tx.readTS())
	if vals != nil {
		tx.noteRowRead(lower, id)
	}
	tx.histRead(lower, id, observed, false)
	return vals, nil
}

// Rollback abandons the transaction. Safe to call after Commit (no-op).
func (tx *Tx) Rollback() {
	if tx.done {
		return
	}
	tx.abort(mAbortsRollback, "rollback")
}

// Fail abandons the transaction because a statement in it failed with err.
// Unlike Rollback, the abort counts under err's reason (a lock timeout as
// deadlock, a shed as overload), and a conflict-class failure arms the live
// checker's escalation, exactly as a failed commit does. No-op once the
// transaction has ended.
func (tx *Tx) Fail(err error) {
	if tx.done {
		return
	}
	// Conflict-class aborts arm the live checker's escalation: the next
	// transactions sample at 100%, because contention is exactly where
	// anomalies live.
	if w := tx.db.watch; w != nil && isConflictAbort(err) {
		w.NoteConflict()
	}
	tx.abort(abortCounter(err), err.Error())
}

// abort is the one place a transaction ends unsuccessfully: it counts the
// abort under its reason, records the abort event, and releases the
// transaction's locks.
func (tx *Tx) abort(counter *obs.Counter, reason string) {
	tx.done = true
	atomic.AddUint64(&tx.db.statAborts, 1)
	counter.Inc()
	tx.emit(histcheck.Event{Tx: tx.id, Kind: histcheck.KindAbort, Reason: reason})
	tx.db.finish(tx)
}

// Commit validates and atomically installs the transaction's writes.
// On any validation error the transaction is rolled back and the error
// returned; ErrSerialization and ErrUniqueViolation/-ForeignKeyViolation are
// the interesting cases for the layers above.
//
// Writing commits run the staged commit pipeline (see commitpipeline.go):
// validation under per-table latches, a group-commit WAL append, and an
// install strictly ordered by commit sequence number.
func (tx *Tx) Commit() error {
	if err := tx.checkLive(); err != nil {
		return err
	}
	start := time.Now()
	db := tx.db
	// The pre-validation commit point. A forced serialization abort here takes
	// the same path a first-committer-wins conflict would; the yield is the
	// scheduler's main handle for directed exploration (holding a writer here
	// keeps its installs invisible to concurrent readers — the
	// almost-cycle-closing move).
	if err := db.point(YieldCommit); err != nil {
		return tx.abortCommit(err, false)
	}
	hasWrites := false
	for _, m := range tx.writes {
		if len(m) > 0 {
			hasWrites = true
			break
		}
	}
	if !hasWrites {
		tx.done = true
		atomic.AddUint64(&db.statCommits, 1)
		mCommits.Inc()
		tx.trace.Add(obs.SpanCommit, time.Since(start))
		tx.emit(histcheck.Event{Tx: tx.id, Kind: histcheck.KindCommit})
		db.finish(tx)
		return nil
	}
	return tx.commitPipelined(start)
}

// abortCommit fails a commit and returns the error Commit reports. walStage
// marks a log failure after validation succeeded: it counts under its own
// abort reason, is reported wrapped, and — not being a data conflict — never
// arms the live checker's escalation.
func (tx *Tx) abortCommit(err error, walStage bool) error {
	if walStage {
		tx.abort(mAbortsWAL, err.Error())
		return fmt.Errorf("commit aborted: %w", err)
	}
	tx.Fail(err)
	return err
}

// isConflictAbort reports whether a commit failure indicates data contention
// worth escalating the live-check sample rate for.
func isConflictAbort(err error) bool {
	return errors.Is(err, ErrSerialization) ||
		errors.Is(err, ErrUniqueViolation) ||
		errors.Is(err, ErrForeignKeyViolation) ||
		errors.Is(err, ErrLockTimeout)
}

// commitPipelined runs the staged commit pipeline.
//
// Stage 1 — validate: under the latches of the write set's FK-connected
// component, run first-committer-wins, cascade expansion, and constraint
// checks, then (still latched) register a commit intent. Registration fails
// three ways: a footprint overlap with a pending intent means a not-yet-
// installed commit could invalidate what validation just observed, so the
// transaction waits for those intents to resolve and revalidates from its
// original write set; a serializable certification conflict aborts; otherwise
// the intent is admitted with the next CSN.
//
// Stage 2 — group-commit WAL: the encoded record joins the writer queue; the
// committer at its head writes the queued records as one frame, and the others
// wait until their batch is durable. A log failure aborts the commit,
// consuming its CSN turn so later commits never stall.
//
// Stage 3 — ordered install: strictly in CSN order, install versions under
// the write tables' latches, emit history events, publish the clock, and
// expose the summary for certification before leaving the pending set.
func (tx *Tx) commitPipelined(start time.Time) error {
	db := tx.db
	p := db.pipe
	p.gateRLock()

	vstart := time.Now()
	names := p.latchFor(tx.writes)
	// Cascade expansion mutates the write set; retries must restart from the
	// transaction's own writes or a prior round's cascade targets would be
	// double-applied against a changed committed state.
	var origWrites map[string]map[RowID]struct{}
	if tx.hasDeletes() {
		origWrites = tx.writeKeySnapshot()
	}
	var intent *commitIntent
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			tx.pruneWrites(origWrites)
		}
		tx.probes = nil
		db.yield(YieldEnqueue)
		latches := p.latch(names)
		err := tx.validate()
		var waits []chan struct{}
		if err == nil {
			intent, waits, err = p.register(tx, tx.buildSummary())
		}
		p.unlatch(latches)
		if err != nil {
			tx.trace.Add(obs.SpanCommitValidate, time.Since(vstart))
			p.gate.RUnlock()
			return tx.abortCommit(err, false)
		}
		if intent != nil {
			break
		}
		if y := db.opts.Yielder; y != nil {
			// Scheduler mode: instead of blocking on the conflicting intents'
			// channels, park and revalidate on our own next turn. The park is
			// not victim-eligible — a registered intent always resolves.
			_ = y.Park(ParkConflict, false)
			continue
		}
		for _, ch := range waits {
			<-ch
		}
	}
	tx.trace.Add(obs.SpanCommitValidate, time.Since(vstart))

	csn := intent.csn
	if db.wal != nil {
		if werr := p.submit(encodeCommit(tx.writes, csn), tx.trace); werr != nil {
			p.abortIntent(intent)
			p.gate.RUnlock()
			return tx.abortCommit(werr, true)
		}
	}

	istart := time.Now()
	db.yield(YieldInstall)
	p.awaitTurn(csn)
	latches := p.latch(tx.writeTableNames())
	tx.install(csn)
	tx.recordCommitEvents(csn)
	atomic.StoreUint64(&db.clock, csn)
	p.unlatch(latches)
	// Publish the summary for certification before resolving the intent, so a
	// registering transaction always sees this commit in exactly one of the
	// two conflict sources (pending intents or recorded summaries).
	db.recordCommit(intent.summary)
	p.finish(intent)
	p.gate.RUnlock()
	tx.trace.Add(obs.SpanCommitInstall, time.Since(istart))

	tx.done = true
	atomic.AddUint64(&db.statCommits, 1)
	db.finish(tx)
	d := time.Since(start)
	mCommits.Inc()
	mCommitSeconds.Observe(d)
	tx.trace.Add(obs.SpanCommit, d)
	return nil
}

// hasDeletes reports whether any buffered write is a delete (the only op that
// can trigger cascade expansion).
func (tx *Tx) hasDeletes() bool {
	for _, rows := range tx.writes {
		for _, w := range rows {
			if w.op == opDelete {
				return true
			}
		}
	}
	return false
}

// writeKeySnapshot captures the current write-set keys, so conflict-wait
// retries can discard cascade-added writes from a previous validation round.
func (tx *Tx) writeKeySnapshot() map[string]map[RowID]struct{} {
	snap := make(map[string]map[RowID]struct{}, len(tx.writes))
	for lower, rows := range tx.writes {
		m := make(map[RowID]struct{}, len(rows))
		for id := range rows {
			m[id] = struct{}{}
		}
		snap[lower] = m
	}
	return snap
}

// pruneWrites drops writes not present in the original-key snapshot.
func (tx *Tx) pruneWrites(orig map[string]map[RowID]struct{}) {
	if orig == nil {
		return
	}
	for lower, rows := range tx.writes {
		keep := orig[lower]
		for id := range rows {
			if _, ok := keep[id]; !ok {
				delete(rows, id)
			}
		}
	}
}

// writeTableNames returns the sorted lower-cased names of tables with
// buffered writes.
func (tx *Tx) writeTableNames() []string {
	names := make([]string, 0, len(tx.writes))
	for lower, rows := range tx.writes {
		if len(rows) > 0 {
			names = append(names, lower)
		}
	}
	sort.Strings(names)
	return names
}

// validate runs commit-time validation: write-write conflicts and in-database
// unique and foreign key constraints (expanding cascades into the write set).
// Serializable read certification is not here but in intent registration
// (commitPipeline.register), where the registry lock closes the race against
// concurrently publishing commits. Caller holds the table latches of the
// write set's FK component.
func (tx *Tx) validate() error {
	db := tx.db

	// First-committer-wins: abort if any written row has a committed version
	// newer than our snapshot.
	if tx.level.firstCommitterWins() {
		for lower, rows := range tx.writes {
			t, err := db.lookupTable(lower)
			if err != nil {
				return err
			}
			t.mu.RLock()
			for id, w := range rows {
				if w.op == opInsert {
					continue
				}
				c := t.chain(id)
				if c == nil {
					t.mu.RUnlock()
					return fmt.Errorf("%w: %s row %d vanished", ErrNoSuchRow, lower, id)
				}
				v := c.latest()
				if v == nil || v.beginTS > tx.startTS || (v.endTS != 0 && v.endTS > tx.startTS) {
					t.mu.RUnlock()
					atomic.AddUint64(&db.statConflict, 1)
					return fmt.Errorf("%w: concurrent update of %s row %d", ErrSerialization, lower, id)
				}
			}
			t.mu.RUnlock()
		}
	}

	if err := tx.expandCascades(); err != nil {
		return err
	}
	if err := tx.checkUnique(); err != nil {
		return err
	}
	return tx.checkForeignKeys()
}

// certify runs serializable read certification: the transaction's reads must
// not overlap writes committed after its snapshot. With PhantomBug set,
// predicate reads are not certified — PostgreSQL bug #11732's observable
// behavior.
func (tx *Tx) certify() error {
	db := tx.db
	for _, c := range db.conflictingSummaries(tx.startTS) {
		for rk := range tx.readRows {
			if _, hit := c.rowKeys[rk]; hit {
				atomic.AddUint64(&db.statConflict, 1)
				return fmt.Errorf("%w: read-write conflict on row", ErrSerialization)
			}
		}
		if !db.opts.PhantomBug {
			for pk := range tx.readPreds {
				if _, hit := c.predKeys[pk]; hit {
					atomic.AddUint64(&db.statConflict, 1)
					return fmt.Errorf("%w: phantom conflict on predicate", ErrSerialization)
				}
			}
		}
	}
	return nil
}

// expandCascades applies in-database ON DELETE actions: for every buffered
// delete of a row in a table referenced by foreign keys, child rows are
// deleted (CASCADE), nulled (SET NULL), or cause an abort (NO ACTION). Runs
// to a fixpoint so cascades chain across tables. Operates on the latest
// committed state — under the component latches this is the authoritative
// state, which is exactly why in-database cascades never orphan rows while
// feral (application-level) cascades do.
func (tx *Tx) expandCascades() error {
	db := tx.db
	work := make([]struct {
		table string
		id    RowID
	}, 0, 8)
	for lower, rows := range tx.writes {
		for id, w := range rows {
			if w.op == opDelete {
				work = append(work, struct {
					table string
					id    RowID
				}{lower, id})
			}
		}
	}
	for len(work) > 0 {
		item := work[0]
		work = work[1:]
		db.catalogMu.RLock()
		edges := append([]fkEdge(nil), db.childFKs[item.table]...)
		db.catalogMu.RUnlock()
		if len(edges) == 0 {
			continue
		}
		parent, err := db.lookupTable(item.table)
		if err != nil {
			return err
		}
		pkCol := parent.schema.PrimaryKey()
		if pkCol == "" {
			continue
		}
		var pkVal Value
		if w := tx.writes[item.table][item.id]; w != nil && w.old != nil {
			pkVal = w.old[parent.schema.ColumnIndex(pkCol)]
		} else if vals, _, _ := parent.latestCommitted(item.id); vals != nil {
			pkVal = vals[parent.schema.ColumnIndex(pkCol)]
		} else {
			continue
		}
		for _, e := range edges {
			child, err := db.lookupTable(e.childTable)
			if err != nil {
				return err
			}
			fkPos := child.schema.ColumnIndex(e.fk.Column)
			if fkPos < 0 {
				return fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, e.childTable, e.fk.Column)
			}
			tx.noteProbe(child.predKey(fkPos, pkVal.Key()))
			childWrites := tx.tableWrites(e.childTable)
			for _, cid := range child.liveMatches(fkPos, pkVal) {
				if _, ok := childWrites[cid]; ok {
					// Rows this transaction already deleted need no action;
					// rows it inserted/updated to reference the dying parent
					// are handled by the FK existence check afterward.
					continue
				}
				vals, _, _ := child.latestCommitted(cid)
				switch e.fk.OnDelete {
				case Cascade:
					tx.seq++
					childWrites[cid] = &txWrite{op: opDelete, old: vals, seq: tx.seq}
					work = append(work, struct {
						table string
						id    RowID
					}{e.childTable, cid})
				case SetNull:
					if child.schema.Columns[fkPos].NotNull {
						anomalywatch.ObserveInvariant(anomalywatch.TierStorage, anomalywatch.InvForeignKey, true)
						return fmt.Errorf("%w: ON DELETE SET NULL into NOT NULL column %s.%s",
							ErrForeignKeyViolation, e.childTable, e.fk.Column)
					}
					newVals := make([]Value, len(vals))
					copy(newVals, vals)
					newVals[fkPos] = Null()
					tx.seq++
					childWrites[cid] = &txWrite{op: opUpdate, vals: newVals, old: vals, seq: tx.seq}
				default: // NoAction
					anomalywatch.ObserveInvariant(anomalywatch.TierStorage, anomalywatch.InvForeignKey, true)
					return fmt.Errorf("%w: %s row referenced by %s.%s",
						ErrForeignKeyViolation, item.table, e.childTable, e.fk.Column)
				}
			}
		}
	}
	return nil
}

// checkUnique enforces in-database unique indexes against the latest
// committed state plus this transaction's own writes. Evaluations and
// violations feed the invariant observatory's storage tier: this is the
// race-free enforcement the paper recommends over feral validation, and the
// counters are what let an operator compare the two tiers' violation rates.
func (tx *Tx) checkUnique() error {
	err := tx.checkUniqueConstraints()
	if errors.Is(err, ErrUniqueViolation) {
		anomalywatch.ObserveInvariant(anomalywatch.TierStorage, anomalywatch.InvUniqueness, true)
	}
	return err
}

func (tx *Tx) checkUniqueConstraints() error {
	db := tx.db
	checked := false
	defer func() {
		if checked {
			anomalywatch.ObserveInvariant(anomalywatch.TierStorage, anomalywatch.InvUniqueness, false)
		}
	}()
	for lower, rows := range tx.writes {
		t, err := db.lookupTable(lower)
		if err != nil {
			return err
		}
		s := t.schema
		for _, spec := range s.Indexes {
			if !spec.Unique {
				continue
			}
			pos := s.ColumnIndex(spec.Column)
			if pos < 0 {
				continue
			}
			checked = true
			// Keys written by this transaction, for intra-transaction dups.
			newKeys := make(map[string]RowID)
			for id, w := range rows {
				if w.op == opDelete || w.vals == nil {
					continue
				}
				v := w.vals[pos]
				if v.IsNull() {
					continue // SQL unique indexes admit multiple NULLs
				}
				key := v.Key()
				if other, dup := newKeys[key]; dup && other != id {
					return fmt.Errorf("%w: duplicate %s.%s = %s within transaction",
						ErrUniqueViolation, s.Name, spec.Column, v.Format())
				}
				newKeys[key] = id

				tx.noteProbe(t.predKey(pos, key))
				for _, cid := range t.liveMatches(pos, v) {
					// Rows in our own write set are being deleted by us or
					// were already counted via newKeys.
					if _, ours := rows[cid]; !ours {
						return fmt.Errorf("%w: %s.%s = %s already exists",
							ErrUniqueViolation, s.Name, spec.Column, v.Format())
					}
				}
			}
		}
	}
	return nil
}

// checkForeignKeys verifies every inserted/updated child row's parent
// exists (in committed state or in this transaction's writes) and is not
// being deleted by this transaction. Like checkUnique, evaluations and
// violations feed the invariant observatory's storage tier.
func (tx *Tx) checkForeignKeys() error {
	err := tx.checkFKConstraints()
	if errors.Is(err, ErrForeignKeyViolation) {
		anomalywatch.ObserveInvariant(anomalywatch.TierStorage, anomalywatch.InvForeignKey, true)
	}
	return err
}

func (tx *Tx) checkFKConstraints() error {
	db := tx.db
	checked := false
	defer func() {
		if checked {
			anomalywatch.ObserveInvariant(anomalywatch.TierStorage, anomalywatch.InvForeignKey, false)
		}
	}()
	for lower, rows := range tx.writes {
		t, err := db.lookupTable(lower)
		if err != nil {
			return err
		}
		for _, fk := range t.schema.ForeignKeys {
			fkPos := t.schema.ColumnIndex(fk.Column)
			if fkPos < 0 {
				continue
			}
			parent, err := db.lookupTable(fk.ParentTable)
			if err != nil {
				return err
			}
			pkCol := parent.schema.PrimaryKey()
			pkPos := parent.schema.ColumnIndex(pkCol)
			for _, w := range rows {
				if w.op == opDelete || w.vals == nil {
					continue
				}
				ref := w.vals[fkPos]
				if ref.IsNull() {
					continue
				}
				tx.noteProbe(parent.predKey(pkPos, ref.Key()))
				if tx.parentExists(parent, pkPos, ref) {
					continue
				}
				return fmt.Errorf("%w: %s.%s = %s has no parent in %s",
					ErrForeignKeyViolation, t.schema.Name, fk.Column, ref.Format(), fk.ParentTable)
			}
		}
	}
	return nil
}

// parentExists reports whether a live parent row with primary key ref
// exists, accounting for this transaction's own inserts and deletes.
func (tx *Tx) parentExists(parent *table, pkPos int, ref Value) bool {
	parentWrites := tx.writes[parent.lower]
	for _, pid := range parent.liveMatches(pkPos, ref) {
		if _, ours := parentWrites[pid]; !ours {
			return true
		}
	}
	// Parents this transaction wrote count by their buffered image.
	for _, w := range parentWrites {
		if w.op != opDelete && w.vals != nil && Equal(w.vals[pkPos], ref) {
			return true
		}
	}
	return false
}

// buildSummary computes the certification footprint of the transaction's
// write set: its row keys plus the full column-value predicate fan-out of
// every old and new image. Intent registration stamps its commitTS.
func (tx *Tx) buildSummary() *txSummary {
	db := tx.db
	summary := &txSummary{
		rowKeys:  make(map[string]struct{}),
		predKeys: make(map[string]struct{}),
	}
	for lower, rows := range tx.writes {
		t, err := db.lookupTable(lower)
		if err != nil {
			continue // table dropped mid-transaction; nothing to install
		}
		summary.predKeys[t.tableKey] = struct{}{}
		for id, w := range rows {
			summary.rowKeys[lower+"\x00"+formatRowID(id)] = struct{}{}
			addPreds := func(vals []Value) {
				for i := range vals {
					summary.predKeys[t.predKey(i, vals[i].Key())] = struct{}{}
				}
			}
			switch w.op {
			case opInsert:
				addPreds(w.vals)
			case opUpdate:
				addPreds(w.vals)
				if w.old != nil {
					addPreds(w.old)
				}
			case opDelete:
				if w.old != nil {
					addPreds(w.old)
				}
			}
		}
	}
	return summary
}

// install writes all buffered changes as committed versions with the given
// timestamp. Caller holds the write tables' latches; the clock is published
// by the caller after install completes so readers never observe a partially
// installed commit.
func (tx *Tx) install(commitTS uint64) {
	db := tx.db
	for lower, rows := range tx.writes {
		t, err := db.lookupTable(lower)
		if err != nil {
			continue // table dropped mid-transaction; nothing to install
		}
		for id, w := range rows {
			switch w.op {
			case opInsert:
				t.installInsert(id, w.vals, commitTS)
			case opUpdate:
				t.installUpdate(id, w.vals, commitTS)
			case opDelete:
				t.installDelete(id, commitTS)
			}
		}
	}
}
