package storage

import (
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"feralcc/internal/obs"
)

// The commit pipeline runs every writing commit through three stages:
//
//	validate ──▶ group-commit WAL ──▶ ordered install
//
// Validation runs under fine-grained per-table latches (the FK-connected
// component of the transaction's write tables), so commits touching disjoint
// table groups validate concurrently. A transaction that validates cleanly
// registers a commit intent stamped with the next commit sequence number
// (CSN); its WAL record joins the writer queue, and the committer at the head
// of the queue writes everything queued behind it as one multi-transaction
// frame, amortizing a single fsync over the batch. Finally versions are
// installed strictly in CSN order — the clock publishes CSNs densely, so
// readers, histcheck's install-order serialization graph, and recovery's
// committed-prefix replay observe exactly the history one-commit-at-a-time
// execution would produce.
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

	// The writer queue; unused without a WAL. queue holds every submitted
	// record not yet written, in arrival order; its head is the leader, the
	// one committer writing a batch. qcond is broadcast when a batch is done.
	qmu   sync.Mutex
	qcond *sync.Cond
	queue []*walSubmission

	// Fsync-amortization bookkeeping for the fsyncs-per-commit gauge.
	groupFsyncs uint64 // atomic
	groupTxns   uint64 // atomic

	// queueDepth counts submissions queued and not yet taken into a batch
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

// walSubmission is one commit record in the writer queue. The leader that
// writes it sets err, then done under qmu; its committer reads err only after
// seeing done.
type walSubmission struct {
	payload  []byte
	tr       *obs.StmtTrace
	enqueued time.Time
	err      error
	done     bool
}

func newCommitPipeline(db *Database) *commitPipeline {
	p := &commitPipeline{
		db:      db,
		latches: make(map[string]*sync.Mutex),
		pending: make(map[uint64]*commitIntent),
	}
	p.cond = sync.NewCond(&p.mu)
	p.qcond = sync.NewCond(&p.qmu)
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

// wait waits once on c, whose lock the caller holds, for the caller's loop to
// re-check its condition. Under the deterministic scheduler it parks at point
// instead, unlocking around the park: the task that will make the progress is
// scheduled too, and blocking on the cond would keep the baton from it. Such
// waits are not victim-eligible, because the awaited progress (an earlier
// CSN's turn, the batch leader's write) always comes.
func (p *commitPipeline) wait(c *sync.Cond, point string) {
	y := p.db.opts.Yielder
	if y == nil {
		c.Wait()
		return
	}
	c.L.Unlock()
	_ = y.Park(point, false)
	c.L.Lock()
}

// awaitTurn blocks until every earlier CSN has installed or aborted.
func (p *commitPipeline) awaitTurn(csn uint64) {
	p.mu.Lock()
	for p.installed != csn-1 {
		p.wait(p.cond, ParkTurn)
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

// maxGroupBatch bounds transactions per group-commit frame, keeping frames
// comfortably under walMaxRecord and p99 fsync-wait latency bounded.
const maxGroupBatch = 128

// submit queues a commit record and blocks until the record's batch is
// durable per the sync policy. The committer at the head of the queue is the
// leader: it writes up to maxGroupBatch queued records — its own and whatever
// queued behind it — as one frame, marks them done, and hands the head to the
// next record. The others wait until their record is done or they reach the
// head, so a lone committer writes its own frame with no handoff, and records
// that queue during a leader's fsync share the next one.
//
// With a CommitQueueBound set, a submission that would push the queue past the
// bound is shed with ErrOverloaded instead of enqueued: the caller's commit
// fails exactly like a WAL-stage fault (nothing installed, nothing
// acknowledged, CSN turn consumed by abortIntent), and the retry-after hint
// scales with the depth the queue had reached.
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
	s := &walSubmission{payload: payload, tr: tr, enqueued: time.Now()}
	mCommitQueueDepth.Inc()
	p.qmu.Lock()
	p.queue = append(p.queue, s)
	for !s.done && p.queue[0] != s {
		p.wait(p.qcond, ParkFsyncWait)
	}
	if s.done {
		p.qmu.Unlock()
		return s.err
	}
	// s leads. Its write ends in a syscall that keeps this goroutine's P, and
	// committers readied on that P — often the batch this committer just
	// released as the previous leader — would sit out the fsync before they
	// could install, holding up every later CSN's install turn. One yield
	// lets them run first; without it p99 commit latency roughly doubled at
	// 8–16 committers. Records queued during the yield join the batch.
	p.qmu.Unlock()
	runtime.Gosched()
	p.qmu.Lock()
	// Records queued after this point wait for the next leader; appends write
	// only past the batch's slots, so batch stays valid without the lock.
	batch := p.queue[:min(len(p.queue), maxGroupBatch)]
	p.qmu.Unlock()

	p.writeBatch(batch)

	p.qmu.Lock()
	for _, b := range batch {
		b.done = true
	}
	n := len(batch)
	clear(p.queue[:n])
	p.queue = p.queue[n:]
	p.qcond.Broadcast()
	p.qmu.Unlock()
	return s.err
}

// writeBatch appends one batch as a single WAL frame and records every
// submission's outcome in its err. Queue-depth accounting and the enqueue and
// fsync-wait spans are settled here, before the batch is marked done, so the
// released committers observe fully written traces.
func (p *commitPipeline) writeBatch(batch []*walSubmission) {
	w := p.db.wal
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
		s.err = err
	}
}

// QuiesceCommits drains the commit pipeline and blocks new commits until the
// returned release function is called. Exposed for tests that need a point-in
// -time view of a concurrently loaded database.
func (db *Database) QuiesceCommits() (release func()) {
	db.pipe.gate.Lock()
	return db.pipe.gate.Unlock
}
