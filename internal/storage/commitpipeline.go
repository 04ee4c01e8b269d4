package storage

import (
	"errors"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"feralcc/internal/obs"
)

// errPipelineClosed aborts commits whose WAL record was still queued when the
// database shut down; like any WAL-stage failure, nothing was installed and
// nothing was acknowledged.
var errPipelineClosed = errors.New("storage: commit pipeline closed")

// The commit pipeline runs every writing commit through three stages:
//
//	validate ──▶ group-commit WAL ──▶ ordered install
//
// Validation runs under fine-grained per-table latches (the FK-connected
// component of the transaction's write tables), so commits touching disjoint
// table groups validate concurrently. A transaction that validates cleanly
// registers a commit intent stamped with the next commit sequence number
// (CSN); its WAL record is handed to a dedicated log-writer goroutine that
// batches whatever is queued into one multi-transaction frame and amortizes a
// single fsync over the batch. Finally versions are installed strictly in CSN
// order — the clock publishes CSNs densely, so readers, histcheck's
// install-order serialization graph, and recovery's committed-prefix replay
// observe exactly the history one-commit-at-a-time execution would produce.
//
// Lock ordering: gate ≺ catalogMu ≺ registry mu ≺ activeMu, and table latches
// are acquired in sorted name order.
type commitPipeline struct {
	db *Database

	// gate is the quiesce barrier. Commits hold it shared from validation
	// through install; Checkpoint, Vacuum, AddIndex, AddForeignKey and
	// CheckIntegrity take it exclusively, which drains the pipeline (every
	// registered intent resolves before the writer can proceed).
	gate sync.RWMutex

	// Per-table validation/install latches, created on demand.
	latchMu sync.Mutex
	latches map[string]*sync.Mutex

	// Intent registry. csn is the last assigned sequence number, installed
	// the last resolved one; every CSN in between is a pending intent that
	// will install (or consume its turn aborting) in order.
	mu        sync.Mutex
	cond      *sync.Cond // broadcast when installed advances
	csn       uint64
	installed uint64
	pending   map[uint64]*commitIntent

	// Group-commit writer plumbing; unused (nil subCh) without a WAL.
	subCh  chan *walSubmission
	stopCh chan struct{}
	doneCh chan struct{}

	// Fsync-amortization bookkeeping for the fsyncs-per-commit gauge.
	groupFsyncs uint64 // atomic
	groupTxns   uint64 // atomic

	// queueDepth counts submissions handed to the writer and not yet durable
	// (mirrors mCommitQueueDepth as a readable value); submit sheds against
	// Options.CommitQueueBound using it.
	queueDepth int64 // atomic
}

// commitIntent is a validated-but-not-yet-installed commit. Its summary is
// the same footprint recorded for serializable certification; later
// validators test their own footprints against it and wait on done when they
// overlap.
type commitIntent struct {
	csn     uint64
	summary *txSummary
	done    chan struct{} // closed once installed or aborted
}

// walSubmission is one commit record queued for the group-commit writer.
type walSubmission struct {
	payload  []byte
	tr       *obs.StmtTrace
	enqueued time.Time
	res      chan error // buffered(1); one send per submission
}

func newCommitPipeline(db *Database) *commitPipeline {
	p := &commitPipeline{
		db:      db,
		latches: make(map[string]*sync.Mutex),
		pending: make(map[uint64]*commitIntent),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// setBase aligns the CSN allocator with the recovered clock, so the first
// post-recovery commit continues the dense timestamp sequence.
func (p *commitPipeline) setBase(clock uint64) {
	p.mu.Lock()
	p.csn = clock
	p.installed = clock
	p.mu.Unlock()
}

// startWriter launches the group-commit log writer goroutine.
func (p *commitPipeline) startWriter(w *wal) {
	p.subCh = make(chan *walSubmission, 256)
	p.stopCh = make(chan struct{})
	p.doneCh = make(chan struct{})
	go p.writerLoop(w)
}

// stopWriter shuts the writer down, failing any queued submissions.
func (p *commitPipeline) stopWriter() {
	if p.subCh == nil {
		return
	}
	close(p.stopCh)
	<-p.doneCh
}

// latchFor returns the sorted latch set for a commit: the transaction's write
// tables plus every table reachable over foreign-key edges in either
// direction. Cascade expansion only ever adds writes within this component,
// and FK/unique probes only consult tables in it, so holding these latches
// makes validation and install mutually atomic per component. AddForeignKey
// runs under the exclusive gate, so the edge set cannot change while any
// commit is in flight.
func (p *commitPipeline) latchFor(writes map[string]map[RowID]*txWrite) []string {
	db := p.db
	db.catalogMu.RLock()
	seen := make(map[string]struct{}, len(writes)+2)
	queue := make([]string, 0, len(writes)+2)
	for lower := range writes {
		if _, dup := seen[lower]; !dup {
			seen[lower] = struct{}{}
			queue = append(queue, lower)
		}
	}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		if t := db.tables[name]; t != nil {
			for _, fk := range t.schema.ForeignKeys {
				parent := strings.ToLower(fk.ParentTable)
				if _, dup := seen[parent]; !dup {
					seen[parent] = struct{}{}
					queue = append(queue, parent)
				}
			}
		}
		for _, e := range db.childFKs[name] {
			if _, dup := seen[e.childTable]; !dup {
				seen[e.childTable] = struct{}{}
				queue = append(queue, e.childTable)
			}
		}
	}
	db.catalogMu.RUnlock()
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// latch acquires the named table latches; names must be sorted.
func (p *commitPipeline) latch(names []string) []*sync.Mutex {
	y := p.db.opts.Yielder
	ms := make([]*sync.Mutex, len(names))
	for i, name := range names {
		p.latchMu.Lock()
		m := p.latches[name]
		if m == nil {
			m = new(sync.Mutex)
			p.latches[name] = m
		}
		p.latchMu.Unlock()
		if y != nil {
			// Under the scheduler the single baton makes latch contention
			// impossible between scheduled tasks (no yield point sits inside a
			// latched section), but an unscheduled background goroutine could
			// still hold one — spin via ParkExternal rather than block.
			for !m.TryLock() {
				y.ParkExternal(ParkLatch)
			}
		} else {
			m.Lock()
		}
		ms[i] = m
	}
	return ms
}

// gateRLock acquires the quiesce gate shared, parking instead of blocking when
// a scheduler is attached: an exclusive holder may be an unscheduled goroutine
// (Checkpoint, Vacuum, DDL from setup code), and a blocked scheduled task
// would otherwise freeze the baton.
func (p *commitPipeline) gateRLock() {
	if y := p.db.opts.Yielder; y != nil {
		for !p.gate.TryRLock() {
			y.ParkExternal(ParkGate)
		}
		return
	}
	p.gate.RLock()
}

// unlatch releases latches in reverse acquisition order.
func (p *commitPipeline) unlatch(ms []*sync.Mutex) {
	for i := len(ms) - 1; i >= 0; i-- {
		ms[i].Unlock()
	}
}

// register decides a validated transaction's fate against the in-flight
// intents. The transaction's footprint is asymmetric on purpose: its row side
// is its written rows plus certified row reads, but its predicate side is
// only the targeted probes validation performed (unique keys, FK parents,
// cascade children) plus certified predicate reads — never the full
// column-value fan-out of its writes, which would serialize every pair of
// same-table writers through shared keys like the table tag. Intent summaries
// carry the full write fan-out, so any probe or read that a pending install
// could invalidate does overlap.
//
// Outcomes: a conflict with pending intents returns their done channels (the
// caller waits and revalidates); a serializable certification failure returns
// the error; otherwise the next CSN is assigned and the intent registered.
// Certification runs here, under the registry lock, because an installing
// commit publishes its summary (recordCommit) before leaving the pending set:
// any summary missed by this scan is still pending and caught by the
// footprint check.
func (p *commitPipeline) register(tx *Tx, summary *txSummary) (*commitIntent, []chan struct{}, error) {
	rows := summary.rowKeys
	preds := tx.probes
	p.mu.Lock()
	var waits []chan struct{}
	for _, in := range p.pending {
		if intentConflicts(in, rows, tx.readRows, preds, tx.readPreds) {
			waits = append(waits, in.done)
		}
	}
	if len(waits) > 0 {
		p.mu.Unlock()
		return nil, waits, nil
	}
	if tx.level.certifiesReads() {
		if err := tx.certify(); err != nil {
			p.mu.Unlock()
			return nil, nil, err
		}
	}
	p.csn++
	summary.commitTS = p.csn
	in := &commitIntent{csn: p.csn, summary: summary, done: make(chan struct{})}
	p.pending[in.csn] = in
	p.mu.Unlock()
	return in, nil, nil
}

// intentConflicts reports whether a pending intent's write footprint overlaps
// the registering transaction's rows (writes + row reads) or predicates
// (validation probes + predicate reads).
func intentConflicts(in *commitIntent, rows, readRows, probes, readPreds map[string]struct{}) bool {
	for k := range rows {
		if _, hit := in.summary.rowKeys[k]; hit {
			return true
		}
	}
	for k := range readRows {
		if _, hit := in.summary.rowKeys[k]; hit {
			return true
		}
	}
	for k := range probes {
		if _, hit := in.summary.predKeys[k]; hit {
			return true
		}
	}
	for k := range readPreds {
		if _, hit := in.summary.predKeys[k]; hit {
			return true
		}
	}
	return false
}

// awaitTurn blocks until every earlier CSN has installed or aborted.
func (p *commitPipeline) awaitTurn(csn uint64) {
	if y := p.db.opts.Yielder; y != nil {
		// Scheduler mode: poll-and-park instead of cond.Wait, so the earlier
		// CSN's holder can be granted the baton to take its turn. Not
		// victim-eligible — an assigned CSN always resolves.
		for {
			p.mu.Lock()
			ready := p.installed == csn-1
			p.mu.Unlock()
			if ready {
				return
			}
			_ = y.Park(ParkTurn, false)
		}
	}
	p.mu.Lock()
	for p.installed != csn-1 {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// finish resolves an intent: it leaves the pending set, the install watermark
// advances, and waiters are released. Caller must have consumed the intent's
// install turn (awaitTurn) first.
func (p *commitPipeline) finish(in *commitIntent) {
	p.mu.Lock()
	delete(p.pending, in.csn)
	p.installed = in.csn
	p.cond.Broadcast()
	p.mu.Unlock()
	close(in.done)
}

// abortIntent consumes an assigned CSN without installing anything (WAL
// append/fsync failure after registration). The turn must still be taken so
// later CSNs do not stall.
func (p *commitPipeline) abortIntent(in *commitIntent) {
	p.awaitTurn(in.csn)
	p.finish(in)
}

// submit hands a commit record to the group-commit writer and blocks until
// the record's batch is durable per the sync policy. With a CommitQueueBound
// set, a submission that would push the queue past the bound is shed with
// ErrOverloaded instead of enqueued: the caller's commit fails exactly like a
// WAL-stage fault (nothing installed, nothing acknowledged, CSN turn
// consumed by abortIntent), and the retry-after hint scales with the depth
// the queue had reached.
func (p *commitPipeline) submit(payload []byte, tr *obs.StmtTrace) error {
	depth := atomic.AddInt64(&p.queueDepth, 1)
	if b := p.db.opts.CommitQueueBound; b != 0 && (b < 0 || depth > int64(b)) {
		atomic.AddInt64(&p.queueDepth, -1)
		mCommitSheds.Inc()
		return &OverloadError{
			Reason:     "commit queue full",
			RetryAfter: overloadRetryAfter(time.Duration(depth) * 100 * time.Microsecond),
		}
	}
	s := &walSubmission{payload: payload, tr: tr, enqueued: time.Now(), res: make(chan error, 1)}
	mCommitQueueDepth.Inc()
	select {
	case p.subCh <- s:
	case <-p.stopCh:
		mCommitQueueDepth.Dec()
		atomic.AddInt64(&p.queueDepth, -1)
		return errPipelineClosed
	}
	if y := p.db.opts.Yielder; y != nil {
		// The group-commit writer is an unscheduled goroutine; park externally
		// between polls so it gets real CPU time to drain the batch.
		for {
			select {
			case err := <-s.res:
				return err
			default:
				y.ParkExternal(ParkFsyncWait)
			}
		}
	}
	return <-s.res
}

// writerLoop is the dedicated log writer: it drains whatever submissions are
// queued into one batch, writes them as a single frame, fsyncs once, and
// releases the whole batch.
func (p *commitPipeline) writerLoop(w *wal) {
	defer close(p.doneCh)
	for {
		select {
		case s := <-p.subCh:
			p.writeBatch(w, p.drainBatch(s))
		case <-p.stopCh:
			for {
				select {
				case s := <-p.subCh:
					mCommitQueueDepth.Dec()
					atomic.AddInt64(&p.queueDepth, -1)
					s.res <- errPipelineClosed
				default:
					return
				}
			}
		}
	}
}

// maxGroupBatch bounds transactions per group-commit frame, keeping frames
// comfortably under walMaxRecord and p99 fsync-wait latency bounded.
const maxGroupBatch = 128

// drainBatch collects the first submission plus everything else already
// queued, up to the batch cap. Before paying for the fsync it lingers
// briefly: committers that have validated but not yet reached their submit
// call are one scheduler pass away, so yielding and re-draining (until two
// consecutive yields harvest nothing) folds them into this frame instead of
// forcing the next batch to start with a near-empty queue. The linger costs
// scheduler passes, not timers, so a lone committer waits only two Gosched
// calls — noise next to the fsync it is about to pay for.
func (p *commitPipeline) drainBatch(first *walSubmission) []*walSubmission {
	batch := append(make([]*walSubmission, 0, 8), first)
	emptyYields := 0
	for len(batch) < maxGroupBatch && emptyYields < 2 {
		select {
		case s := <-p.subCh:
			batch = append(batch, s)
			emptyYields = 0
		default:
			runtime.Gosched()
			select {
			case s := <-p.subCh:
				batch = append(batch, s)
				emptyYields = 0
			default:
				emptyYields++
			}
		}
	}
	return batch
}

// writeBatch appends one batch as a single WAL frame and releases every
// submission with its outcome. Queue-depth accounting and the enqueue and
// fsync-wait spans are settled here, before the release sends, so the
// receiving committers observe fully written traces.
func (p *commitPipeline) writeBatch(w *wal, batch []*walSubmission) {
	now := time.Now()
	for _, s := range batch {
		mCommitQueueDepth.Dec()
		atomic.AddInt64(&p.queueDepth, -1)
		s.tr.Add(obs.SpanCommitQueue, now.Sub(s.enqueued))
	}
	survivors, err := w.appendGroup(batch)
	wait := time.Since(now)
	for _, s := range batch {
		s.tr.Add(obs.SpanCommitFsyncWait, wait)
	}
	if len(survivors) > 0 {
		mGroupCommitFrames.Inc()
		mGroupCommitTxns.Add(uint64(len(survivors)))
		mGroupCommitBatchTxns.Observe(time.Duration(len(survivors)))
		txns := atomic.AddUint64(&p.groupTxns, uint64(len(survivors)))
		var fsyncs uint64
		if w.policy == SyncAlways {
			fsyncs = atomic.AddUint64(&p.groupFsyncs, 1)
		} else {
			fsyncs = atomic.LoadUint64(&p.groupFsyncs)
		}
		mFsyncsPerCommitMilli.Set(int64(fsyncs * 1000 / txns))
	}
	for _, s := range survivors {
		s.res <- err
	}
}

// QuiesceCommits drains the commit pipeline and blocks new commits until the
// returned release function is called. Exposed for tests that need a point-in
// -time view of a concurrently loaded database.
func (db *Database) QuiesceCommits() (release func()) {
	db.pipe.gate.Lock()
	return db.pipe.gate.Unlock
}
