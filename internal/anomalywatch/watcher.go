// Package anomalywatch is the live half of the isolation story: a streaming,
// sampled, windowed Adya checker an operator can leave on in production.
//
// internal/histcheck owns the direct serialization graph and its classifier;
// Check feeds that graph a complete recorded history. This package feeds the
// same histcheck.Graph incrementally: the storage engine samples transactions
// (seeded probabilistic rate plus always-sample-on-conflict escalation) and
// offers their events into a bounded lock-free ring; a single checker
// goroutine drains the ring into the graph, asks it for new findings after
// every commit and abort, and evicts closed transactions first-in-first-out
// beyond the window bound. The commit path never blocks on the checker: a
// full ring sheds the event and counts the shed.
//
// What a windowed checker can and cannot prove: a cycle wholly contained in
// the window (all participants still resident when its last edge forms) is
// detected exactly as the offline checker would. A cycle that straddles the
// eviction horizon is not detectable — eviction of a transaction that still
// carries dependency state increments the window_truncated counter, so "zero
// anomalies, zero truncations" is a real certificate for the sampled
// subgraph, while "zero anomalies, some truncations" only bounds where an
// anomaly could hide. With a sample rate below 1, dependencies between a
// sampled and an unsampled transaction are invisible; conflict escalation
// exists to pull the transactions most likely to participate in a cycle into
// the sample.
package anomalywatch

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"feralcc/internal/histcheck"
)

// Config configures a Watcher. A zero SampleRate means no transaction is
// sampled by rate (conflict escalation still arms).
type Config struct {
	// SampleRate is the seeded probability a transaction's events enter the
	// window; >= 1 samples everything.
	SampleRate float64
	// Seed makes the sampling decision deterministic per transaction id.
	Seed uint64
	// WindowTxns bounds how many closed (committed or aborted) transactions
	// the sliding window retains. Default 4096.
	WindowTxns int
	// OnFinding, when non-nil, is called from the checker goroutine for every
	// newly detected anomaly.
	OnFinding func(Witness)
}

// limits are the watcher's fixed bounds. No deployment varies them; in-package
// tests shrink them to reach the edges.
type limits struct {
	ring       int // producer ring entries (rounded up to a power of two)
	escalation int // transactions sampled at 100% after a conflict abort
	witnesses  int // witnesses retained for /anomalies
}

var defaultLimits = limits{ring: 16384, escalation: 64, witnesses: 32}

// maxTxEvents caps the per-transaction event buffer kept for witness
// projection. It bounds evidence only: every read and write still reaches
// the graph.
const maxTxEvents = 256

// Witness is one detected anomaly with enough context to replay it: the
// participants, their isolation levels and trace IDs, the human-readable
// cycle, and the projection of the participants' events — a self-contained
// sub-history feralcheck can re-verify.
type Witness struct {
	Anomaly   histcheck.Anomaly
	Forbidden bool
	Txs       []uint64
	Levels    []string
	// Traces are the distinct non-zero statement trace IDs observed across
	// the participants' events, linking the witness back to spans and
	// slow-query log lines.
	Traces []uint64
	// Cycle is the printable evidence, e.g. "T5 --rw[...]--> T9 --ww[...]--> T5".
	Cycle string
	// Truncated marks that a participant's event buffer overflowed
	// maxTxEvents, so Events is incomplete.
	Truncated bool
	// Events is the participants' event projection in checker order.
	Events []histcheck.Event
}

// Stats is a point-in-time snapshot of the watcher's counters.
type Stats struct {
	Events      uint64 // events accepted into the ring
	Shed        uint64 // events dropped at a full ring
	Sampled     uint64 // transactions selected for live checking
	Escalations uint64 // transactions sampled by conflict escalation
	WindowTxns  int    // transactions currently resident in the window
	Evictions   uint64
	Truncated   uint64 // evictions that discarded live dependency state
	// Retargets is histcheck.Graph.Retargets: zero on engine feeds; nonzero
	// means a finding may rest on an edge the final graph does not contain,
	// and exact-parity consumers should stand down.
	Retargets uint64
	Anomalies map[histcheck.Anomaly]uint64
	Forbidden uint64
}

// txBuf is the witness evidence kept for one resident transaction.
type txBuf struct {
	events    []histcheck.Event
	truncated bool
	closed    bool
}

// Watcher is the live checker: lock-free producers, one consumer goroutine.
type Watcher struct {
	cfg       Config
	lim       limits
	threshold uint64 // sampling threshold over the splitmix64 hash space

	escalate atomic.Int64 // remaining conflict-escalation budget
	ring     *ring
	notify   chan struct{}
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	enqueued  atomic.Uint64
	processed atomic.Uint64
	syncReq   atomic.Uint64
	syncAck   atomic.Uint64

	stShed        atomic.Uint64
	stSampled     atomic.Uint64
	stEscalations atomic.Uint64
	stRetargets   atomic.Uint64

	// Consumer-private state: only the checker goroutine touches these.
	seq         uint64
	graph       *histcheck.Graph
	bufs        map[uint64]*txBuf
	closed      []uint64 // FIFO of closed transaction ids awaiting eviction
	sinceAlmost int

	// mu guards the cross-goroutine snapshot the consumer publishes.
	mu          sync.Mutex
	witnesses   []Witness
	anomalies   map[histcheck.Anomaly]uint64
	forbidden   uint64
	windowSize  int
	evictions   uint64
	truncations uint64
}

// New starts a watcher and its checker goroutine.
func New(cfg Config) *Watcher { return newWatcher(cfg, defaultLimits) }

func newWatcher(cfg Config, lim limits) *Watcher {
	if cfg.WindowTxns <= 0 {
		cfg.WindowTxns = 4096
	}
	w := &Watcher{
		cfg:       cfg,
		lim:       lim,
		ring:      newRing(lim.ring),
		notify:    make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		graph:     histcheck.NewGraph(),
		bufs:      make(map[uint64]*txBuf),
		anomalies: make(map[histcheck.Anomaly]uint64),
	}
	switch {
	case cfg.SampleRate >= 1:
		w.threshold = ^uint64(0)
	case cfg.SampleRate > 0:
		w.threshold = uint64(cfg.SampleRate * float64(^uint64(0)))
	}
	go w.loop()
	return w
}

// splitmix64 is the standard SplitMix64 finalizer; the package carries its
// own copy so the sampling decision has no dependency beyond the stdlib.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SampleTx decides whether the transaction with this id is live-checked:
// first against the conflict-escalation budget, then against the seeded hash
// of the id. The decision is per-transaction and all-or-nothing, so sampled
// transactions contribute complete event sequences.
func (w *Watcher) SampleTx(id uint64) bool {
	if w == nil {
		return false
	}
	for {
		v := w.escalate.Load()
		if v <= 0 {
			break
		}
		if w.escalate.CompareAndSwap(v, v-1) {
			mEscalations.Inc()
			mSampled.Inc()
			w.stEscalations.Add(1)
			w.stSampled.Add(1)
			return true
		}
	}
	if w.threshold == 0 {
		return false
	}
	if w.threshold == ^uint64(0) || splitmix64(w.cfg.Seed^id) <= w.threshold {
		mSampled.Inc()
		w.stSampled.Add(1)
		return true
	}
	return false
}

// NoteConflict arms the escalation budget: the next limits.escalation
// transactions are sampled unconditionally. Conflict aborts mark exactly the
// contention cycles most likely to produce anomalies, so the sampler chases
// them even at low base rates.
func (w *Watcher) NoteConflict() {
	if w == nil {
		return
	}
	budget := int64(w.lim.escalation)
	for {
		v := w.escalate.Load()
		if v >= budget {
			return
		}
		if w.escalate.CompareAndSwap(v, budget) {
			return
		}
	}
}

// Offer feeds one event of a sampled transaction to the checker. It never
// blocks: a full ring drops the event and counts the shed. Returns whether
// the event was accepted.
func (w *Watcher) Offer(e histcheck.Event) bool {
	if w == nil {
		return false
	}
	if !w.ring.offer(entry{ev: e, at: time.Now().UnixNano()}) {
		mShed.Inc()
		w.stShed.Add(1)
		return false
	}
	w.enqueued.Add(1)
	mEvents.Inc()
	select {
	case w.notify <- struct{}{}:
	default:
	}
	return true
}

// Drain blocks until every event accepted so far has been processed and the
// derived gauges (almost-cycles, window size) refreshed. Test hook; callers
// must have stopped producing.
func (w *Watcher) Drain() {
	target := w.enqueued.Load()
	for w.processed.Load() < target {
		time.Sleep(100 * time.Microsecond)
	}
	req := w.syncReq.Add(1)
	for w.syncAck.Load() < req {
		select {
		case w.notify <- struct{}{}:
		default:
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// Stop terminates the checker goroutine after draining the ring. Idempotent.
func (w *Watcher) Stop() {
	if w == nil {
		return
	}
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
}

// The almost-cycle gauge is the one derived value whose recomputation walks
// every read held in the window, so it runs on a self-amortizing cadence
// rather than per drain: only once almostRefreshEvery events have arrived
// (almostRefreshForce under sustained load, without waiting for the ring to
// empty) AND the new events amount to at least 1/almostRefreshCost of the
// reads the scan visits. The scan's cost is thus always amortized over a
// proportional number of events, keeping overhead a constant fraction no
// matter how large the window grows; the price is a gauge that can lag by up
// to a quarter of the window's reads. Sync points (Drain, Stop) always
// recompute, so observers that quiesce first read exact values.
const (
	almostRefreshEvery = 256
	almostRefreshForce = 4096
	almostRefreshCost  = 4
)

func (w *Watcher) almostDue(every int) bool {
	return w.sinceAlmost >= every && w.sinceAlmost*almostRefreshCost >= w.graph.Reads()
}

func (w *Watcher) loop() {
	defer close(w.done)
	dirty := false
	for {
		e, ok := w.ring.poll()
		if !ok {
			if dirty {
				// A drained ring republishes the cheap window gauge every
				// time; the almost-cycle scan waits for its cadence, or a
				// lightly loaded checker turns quadratic. The sync path below
				// still forces an exact refresh for Drain() observers.
				w.publishWindow()
				if w.almostDue(almostRefreshEvery) {
					w.refreshDerived()
				}
				dirty = false
			}
			if sr := w.syncReq.Load(); sr != w.syncAck.Load() {
				w.refreshDerived()
				w.syncAck.Store(sr)
			}
			select {
			case <-w.notify:
				continue
			case <-w.stop:
				for {
					e, ok := w.ring.poll()
					if !ok {
						break
					}
					w.handle(e)
					w.processed.Add(1)
				}
				w.refreshDerived()
				if sr := w.syncReq.Load(); sr != w.syncAck.Load() {
					w.syncAck.Store(sr)
				}
				return
			}
		}
		w.handle(e)
		dirty = true
		w.sinceAlmost++
		if w.almostDue(almostRefreshForce) {
			w.refreshDerived()
		}
		w.processed.Add(1)
	}
}

// handle runs one event through the graph. Every event reaches the graph;
// the witness buffer alone is capped.
func (w *Watcher) handle(en entry) {
	if en.at != 0 {
		if lag := time.Now().UnixNano() - en.at; lag > 0 {
			mCheckerLag.Observe(time.Duration(lag))
		}
	}
	e := en.ev
	w.seq++
	e.Seq = w.seq
	b := w.bufs[e.Tx]
	if b == nil {
		b = &txBuf{}
		w.bufs[e.Tx] = b
	}
	if len(b.events) < maxTxEvents {
		b.events = append(b.events, e)
	} else {
		b.truncated = true
	}
	w.graph.Add(e)
	if (e.Kind != histcheck.KindCommit && e.Kind != histcheck.KindAbort) || b.closed {
		return
	}
	for _, f := range w.graph.Findings() {
		w.report(f)
	}
	if d := w.graph.Retargets() - w.stRetargets.Load(); d != 0 {
		mRetargets.Add(d)
		w.stRetargets.Add(d)
	}
	b.closed = true
	w.closed = append(w.closed, e.Tx)
	for len(w.closed) > w.cfg.WindowTxns {
		w.evict(w.closed[0])
		w.closed = w.closed[1:]
	}
	w.publishWindow()
}

// report updates the counters, publishes the witness, and fires the callback.
func (w *Watcher) report(f histcheck.Finding) {
	countFinding(f)
	wit := w.buildWitness(f)
	w.mu.Lock()
	w.anomalies[f.Anomaly]++
	if f.Forbidden {
		w.forbidden++
	}
	w.witnesses = append(w.witnesses, wit)
	if len(w.witnesses) > w.lim.witnesses {
		w.witnesses = append(w.witnesses[:0], w.witnesses[len(w.witnesses)-w.lim.witnesses:]...)
	}
	w.mu.Unlock()
	if w.cfg.OnFinding != nil {
		w.cfg.OnFinding(wit)
	}
}

// buildWitness projects the participants' buffered events into a
// self-contained, replayable sub-history.
func (w *Watcher) buildWitness(f histcheck.Finding) Witness {
	wit := Witness{
		Anomaly:   f.Anomaly,
		Forbidden: f.Forbidden,
		Txs:       append([]uint64(nil), f.Txs...),
		Levels:    append([]string(nil), f.Levels...),
		Cycle:     f.Witness,
	}
	seen := make(map[uint64]struct{}, len(f.Txs))
	traces := make(map[uint64]struct{})
	for _, id := range f.Txs {
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		b := w.bufs[id]
		if b == nil {
			wit.Truncated = true
			continue
		}
		if b.truncated {
			wit.Truncated = true
		}
		wit.Events = append(wit.Events, b.events...)
		for _, e := range b.events {
			if e.Trace != 0 {
				traces[e.Trace] = struct{}{}
			}
		}
	}
	sort.Slice(wit.Events, func(i, j int) bool { return wit.Events[i].Seq < wit.Events[j].Seq })
	for tr := range traces {
		wit.Traces = append(wit.Traces, tr)
	}
	sort.Slice(wit.Traces, func(i, j int) bool { return wit.Traces[i] < wit.Traces[j] })
	return wit
}

// evict drops one closed transaction from the window. If the graph still
// held dependency state for it, a cycle through it can no longer be detected,
// and window_truncated counts the loss.
func (w *Watcher) evict(id uint64) {
	truncated := w.graph.Evict(id)
	delete(w.bufs, id)
	mEvictions.Inc()
	if truncated {
		mTruncated.Inc()
	}
	w.mu.Lock()
	w.evictions++
	if truncated {
		w.truncations++
	}
	w.mu.Unlock()
}

func (w *Watcher) publishWindow() {
	n := len(w.bufs)
	mWindowTxns.Set(int64(n))
	w.mu.Lock()
	w.windowSize = n
	w.mu.Unlock()
}

// refreshDerived recomputes the almost-cycle gauge (the near-miss pressure
// signal feralhunt steers by, exported for operators) and republishes the
// window gauge. Expensive — it visits every read in the window — so the loop
// runs it on the almostRefresh* cadence and at sync points, never per event.
func (w *Watcher) refreshDerived() {
	w.sinceAlmost = 0
	mAlmostCycles.Set(int64(len(w.graph.AlmostCycles())))
	w.publishWindow()
}

// ---- cross-goroutine read API ----

// Stats returns a snapshot of the watcher's counters.
func (w *Watcher) Stats() Stats {
	if w == nil {
		return Stats{}
	}
	s := Stats{
		Events:      w.enqueued.Load(),
		Shed:        w.stShed.Load(),
		Sampled:     w.stSampled.Load(),
		Escalations: w.stEscalations.Load(),
		Retargets:   w.stRetargets.Load(),
		Anomalies:   make(map[histcheck.Anomaly]uint64),
	}
	w.mu.Lock()
	s.WindowTxns = w.windowSize
	s.Evictions = w.evictions
	s.Truncated = w.truncations
	s.Forbidden = w.forbidden
	for a, n := range w.anomalies {
		s.Anomalies[a] = n
	}
	w.mu.Unlock()
	return s
}

// Witnesses returns a copy of the retained witness ring, oldest first.
func (w *Watcher) Witnesses() []Witness {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]Witness, len(w.witnesses))
	copy(out, w.witnesses)
	return out
}

// Classes returns the distinct anomaly classes detected so far, sorted.
func (w *Watcher) Classes() []histcheck.Anomaly {
	s := w.Stats()
	out := make([]histcheck.Anomaly, 0, len(s.Anomalies))
	for a := range s.Anomalies {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
