package histcheck

import (
	"fmt"
	"sort"
	"strconv"
)

// edgeKind labels a direct-serialization-graph edge.
type edgeKind uint8

const (
	edgeWW edgeKind = iota // Ti installed a version, Tj installed its successor
	edgeWR                 // Ti installed a version Tj read
	edgeRW                 // Ti read a version whose successor Tj installed
)

var edgeKindNames = [...]string{edgeWW: "ww", edgeWR: "wr", edgeRW: "rw"}

func (k edgeKind) String() string { return edgeKindNames[k] }

// edge is one deduplicated (from, to, kind) dependency. Several rows can
// justify the same edge; the label of the first justification is kept, which
// makes witnesses a function of the event order alone.
type edge struct {
	from, to uint64
	kind     edgeKind
	label    string // e.g. "users r3: v2->v7"
}

type edgeKey struct {
	from, to uint64
	kind     edgeKind
}

// rowKey names one item. It is comparable, so it keys maps directly.
type rowKey struct {
	table string
	row   uint64
}

func (k rowKey) String() string { return k.table + " r" + strconv.FormatUint(k.row, 10) }

type read struct {
	rk       rowKey
	observed uint64
}

// install is one version of a row: at write intake a transaction's buffered
// write, after its commit an entry in the row's version order. seq is the
// arrival number of the write event, the tie-break between equal versions.
type install struct {
	version, tx, seq uint64
}

func (a install) before(b install) bool {
	return a.version < b.version || a.version == b.version && a.seq < b.seq
}

type write struct {
	rk rowKey
	install
}

// trackedRead is one committed read's anti-dependency state: the install that
// currently succeeds the version it observed (the target of its rw edge), or
// none yet.
type trackedRead struct {
	tx, observed uint64
	succ         install
}

// deferredRead is a committed read of a version whose writer has not
// terminated yet; it becomes a wr edge or a G1a finding when the writer does.
type deferredRead struct {
	reader uint64
	read
}

type graphTx struct {
	id                 uint64
	level              string
	committed, aborted bool

	reads  []read
	writes []write
	// finalWrite is the version of the last write to each row — the one value
	// other transactions may read. Earlier versions are intermediate (G1b).
	finalWrite map[rowKey]uint64
	deferred   []deferredRead
	// unresolved counts this transaction's committed reads that are not an
	// edge yet — awaiting a successor install, or parked on an open writer:
	// dependency state an eviction would lose.
	unresolved int
	findKeys   []string
}

// rowState is one row: committed installs in version order, the first writer
// of every version seen (any outcome, for G1a), and every committed read —
// those still awaiting a successor apart from those that have one, so an
// in-order install touches only the former.
type rowState struct {
	installs []install
	writerOf map[uint64]uint64
	pending  []trackedRead
	resolved []trackedRead
}

// successor returns the index of the first install with a version above v.
func (r *rowState) successor(v uint64) int {
	return sort.Search(len(r.installs), func(i int) bool { return r.installs[i].version > v })
}

// installer returns the committed writer of exactly version v — of several,
// the one whose write event came first.
func (r *rowState) installer(v uint64) (tx uint64, ok bool) {
	i := sort.Search(len(r.installs), func(i int) bool { return r.installs[i].version >= v })
	if i == len(r.installs) || r.installs[i].version != v {
		return 0, false
	}
	return r.installs[i].tx, true
}

// Graph is the Adya direct serialization graph of a history, built one event
// at a time. It is the only place events become ww/wr/rw edges: Check feeds
// it a whole history and classifies once at the end; the live watcher feeds
// it sampled events, classifies after every commit and evicts old
// transactions. Those are the only differences between offline and live
// checking.
//
// Add expects what the engine emits: each transaction's events in order, and
// a version's write event before any read that observed it. Writes enter the
// row's version order when their transaction commits; a committed read turns
// into a wr edge from the observed version's writer (deferred while that
// writer is still open; G1a if it aborted; G1b if the version was not its
// last) and an rw edge to the installer of the next version (registered as
// pending until one exists, and re-pointed if an install arrives out of
// version order). A Graph is not safe for concurrent use.
type Graph struct {
	seq  uint64
	txs  map[uint64]*graphTx
	rows map[rowKey]*rowState

	adj   map[uint64][]edge         // deduplicated out-edges, insertion order
	in    map[uint64]map[uint64]int // to -> from -> edges between them
	refs  map[edgeKey]int           // justifications per edge
	kinds [3]int                    // deduplicated edges per kind

	dirty     bool                // an edge was added since the last classification
	fresh     []Finding           // G1a/G1b findings not yet returned
	reported  map[string]struct{} // dedup keys of every finding returned
	reads     int
	retargets uint64
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		txs:      make(map[uint64]*graphTx),
		rows:     make(map[rowKey]*rowState),
		adj:      make(map[uint64][]edge),
		in:       make(map[uint64]map[uint64]int),
		refs:     make(map[edgeKey]int),
		reported: make(map[string]struct{}),
	}
}

// graphOf builds the graph of a whole history.
func graphOf(events []Event) *Graph {
	g := NewGraph()
	for i := range events {
		g.Add(events[i])
	}
	return g
}

// Retargets counts edges withdrawn because an install arrived below a version
// already installed: a ww edge split in two, or an rw edge re-pointed at the
// closer successor. The engine installs in version order, so this stays zero
// on its histories; nonzero means a classification made before the last event
// may have seen an edge the final graph lacks.
func (g *Graph) Retargets() uint64 { return g.retargets }

// Reads is the number of item reads the graph currently holds — the cost of
// one AlmostCycles call.
func (g *Graph) Reads() int { return g.reads }

func (g *Graph) row(rk rowKey) *rowState {
	r := g.rows[rk]
	if r == nil {
		r = &rowState{writerOf: make(map[uint64]uint64)}
		g.rows[rk] = r
	}
	return r
}

// Add feeds one event. Events of a transaction after its commit or abort are
// ignored.
func (g *Graph) Add(e Event) {
	g.seq++
	t := g.txs[e.Tx]
	if t == nil {
		t = &graphTx{id: e.Tx}
		g.txs[e.Tx] = t
	}
	if t.committed || t.aborted {
		return
	}
	switch e.Kind {
	case KindBegin:
		t.level = e.Level
	case KindRead:
		if !e.Own && e.Observed != 0 {
			t.reads = append(t.reads, read{rowKey{e.Table, e.Row}, e.Observed})
			g.reads++
		}
	case KindWrite:
		if e.Version == 0 {
			return // never installed (aborted in-engine); invisible
		}
		rk := rowKey{e.Table, e.Row}
		r := g.row(rk)
		if _, dup := r.writerOf[e.Version]; !dup {
			r.writerOf[e.Version] = e.Tx
		}
		if t.finalWrite == nil {
			t.finalWrite = make(map[rowKey]uint64)
		}
		t.finalWrite[rk] = e.Version
		t.writes = append(t.writes, write{rk, install{e.Version, e.Tx, g.seq}})
	case KindCommit:
		t.committed = true
		// Installs first: a read-modify-write's own install must be in the
		// row's order before its read looks for a successor.
		for _, w := range t.writes {
			g.install(w)
		}
		g.settleDeferred(t)
		for _, rd := range t.reads {
			g.resolveRead(t, rd)
		}
	case KindAbort:
		t.aborted = true
		g.settleDeferred(t)
	}
}

// settleDeferred resolves the reads that were waiting for t's outcome.
func (g *Graph) settleDeferred(t *graphTx) {
	for _, d := range t.deferred {
		if reader := g.txs[d.reader]; reader != nil {
			reader.unresolved--
			g.readFrom(reader, t, d.read)
		}
	}
	t.deferred = nil
}

// install inserts one committed version into its row's order, adds the ww
// edges to its neighbours and points at it every tracked read whose closest
// successor it now is.
func (g *Graph) install(w write) {
	r, n := g.row(w.rk), w.install
	idx := sort.Search(len(r.installs), func(i int) bool { return n.before(r.installs[i]) })
	inOrder := idx == len(r.installs)
	if !inOrder && idx > 0 {
		g.removeEdge(r.installs[idx-1].tx, r.installs[idx].tx, edgeWW)
		g.retargets++
	}
	r.installs = append(r.installs, install{})
	copy(r.installs[idx+1:], r.installs[idx:])
	r.installs[idx] = n
	if idx > 0 {
		a := r.installs[idx-1]
		g.addEdge(a.tx, n.tx, edgeWW, fmt.Sprintf("%s: v%d->v%d", w.rk, a.version, n.version))
	}
	if !inOrder {
		b := r.installs[idx+1]
		g.addEdge(n.tx, b.tx, edgeWW, fmt.Sprintf("%s: v%d->v%d", w.rk, n.version, b.version))
	}

	retarget := func(tr *trackedRead) {
		tr.succ = n
		g.addEdge(tr.tx, n.tx, edgeRW,
			fmt.Sprintf("%s: read v%d, overwritten by v%d", w.rk, tr.observed, n.version))
	}
	waiting := r.pending[:0]
	for _, tr := range r.pending {
		if tr.observed >= n.version {
			waiting = append(waiting, tr)
			continue
		}
		retarget(&tr)
		r.resolved = append(r.resolved, tr)
		if reader := g.txs[tr.tx]; reader != nil {
			reader.unresolved--
		}
	}
	r.pending = waiting
	if inOrder {
		return // every resolved read already points below n
	}
	for i := range r.resolved {
		if tr := &r.resolved[i]; tr.observed < n.version && n.before(tr.succ) {
			g.removeEdge(tr.tx, tr.succ.tx, edgeRW)
			g.retargets++
			retarget(tr)
		}
	}
}

// resolveRead turns one read of the just-committed t into its wr-side
// consequence and its rw-side one.
func (g *Graph) resolveRead(t *graphTx, rd read) {
	// The row may be unknown (the observed version predates the history or
	// the window); the read is tracked anyway so a later install finds it.
	r := g.row(rd.rk)
	// No self-exclusion: a history can carry an unmarked read of the reader's
	// own intermediate version, which is G1b with reader == writer; addEdge
	// drops the self wr edge.
	if writer, known := r.writerOf[rd.observed]; known {
		g.readFrom(t, g.txs[writer], rd)
	}
	if i := r.successor(rd.observed); i < len(r.installs) {
		succ := r.installs[i]
		r.resolved = append(r.resolved, trackedRead{t.id, rd.observed, succ})
		g.addEdge(t.id, succ.tx, edgeRW,
			fmt.Sprintf("%s: read v%d, overwritten by v%d", rd.rk, rd.observed, succ.version))
		return
	}
	r.pending = append(r.pending, trackedRead{tx: t.id, observed: rd.observed})
	t.unresolved++
}

// readFrom records that committed reader observed a version writer wrote.
func (g *Graph) readFrom(reader, writer *graphTx, rd read) {
	direct := func(a Anomaly, witness string) {
		key := fmt.Sprintf("%s|%d|%d|%s|%d", a, reader.id, writer.id, rd.rk, rd.observed)
		f := Finding{Anomaly: a, Txs: []uint64{reader.id, writer.id}, Levels: []string{reader.level, writer.level}, Witness: witness}
		if g.firstReport(key, f.Txs) {
			g.fresh = append(g.fresh, f)
		}
	}
	switch {
	case writer.aborted:
		direct(G1a, fmt.Sprintf("T%d read %s v%d installed by aborted T%d", reader.id, rd.rk, rd.observed, writer.id))
	case writer.committed:
		if final := writer.finalWrite[rd.rk]; final != rd.observed {
			direct(G1b, fmt.Sprintf("T%d read %s v%d, an intermediate write of T%d (final v%d)",
				reader.id, rd.rk, rd.observed, writer.id, final))
		}
		g.addEdge(writer.id, reader.id, edgeWR,
			fmt.Sprintf("%s: T%d installed v%d, read by T%d", rd.rk, writer.id, rd.observed, reader.id))
	default:
		writer.deferred = append(writer.deferred, deferredRead{reader.id, rd})
		reader.unresolved++
	}
}

// addEdge adds one justification for a (from, to, kind) edge.
func (g *Graph) addEdge(from, to uint64, kind edgeKind, label string) {
	if from == to {
		return
	}
	k := edgeKey{from, to, kind}
	if g.refs[k]++; g.refs[k] > 1 {
		return
	}
	g.adj[from] = append(g.adj[from], edge{from, to, kind, label})
	if g.in[to] == nil {
		g.in[to] = make(map[uint64]int)
	}
	g.in[to][from]++
	g.kinds[kind]++
	g.dirty = true
}

// removeEdge withdraws one justification; the edge goes with its last one.
func (g *Graph) removeEdge(from, to uint64, kind edgeKind) {
	k := edgeKey{from, to, kind}
	if n := g.refs[k]; n > 1 {
		g.refs[k] = n - 1
	} else if n == 1 {
		g.dropEdge(k)
	}
}

// dropEdge deletes an edge whatever its justification count.
func (g *Graph) dropEdge(k edgeKey) {
	delete(g.refs, k)
	g.kinds[k.kind]--
	out := g.adj[k.from]
	for i, e := range out {
		if e.to == k.to && e.kind == k.kind {
			out = append(out[:i], out[i+1:]...)
			break
		}
	}
	if len(out) == 0 {
		delete(g.adj, k.from)
	} else {
		g.adj[k.from] = out
	}
	if g.in[k.to][k.from]--; g.in[k.to][k.from] == 0 {
		if delete(g.in[k.to], k.from); len(g.in[k.to]) == 0 {
			delete(g.in, k.to)
		}
	}
}

// Evict forgets a terminated transaction and everything it anchors: its
// edges, installs, tracked reads and finding dedup keys. lostDeps reports
// that it still carried dependency state — an edge, a read awaiting a
// successor, or a read parked on an open writer — so a cycle through it can
// no longer be found; otherwise the graph is exactly what the history
// without this transaction would have built.
func (g *Graph) Evict(tx uint64) (lostDeps bool) {
	t := g.txs[tx]
	if t == nil {
		return false
	}
	lostDeps = len(g.adj[tx]) > 0 || len(g.in[tx]) > 0 || t.unresolved > 0
	for _, e := range append([]edge(nil), g.adj[tx]...) {
		g.dropEdge(edgeKey{e.from, e.to, e.kind})
	}
	for from := range g.in[tx] {
		for _, e := range append([]edge(nil), g.adj[from]...) {
			if e.to == tx {
				g.dropEdge(edgeKey{e.from, e.to, e.kind})
			}
		}
	}
	for _, w := range t.writes {
		g.forget(tx, w.rk)
	}
	for _, rd := range t.reads {
		g.forget(tx, rd.rk)
	}
	for _, k := range t.findKeys {
		delete(g.reported, k)
	}
	g.reads -= len(t.reads)
	delete(g.txs, tx)
	return lostDeps
}

// forget removes tx from one row's state, and the row once nothing is left.
func (g *Graph) forget(tx uint64, rk rowKey) {
	r := g.rows[rk]
	if r == nil {
		return
	}
	installs := r.installs[:0]
	for _, in := range r.installs {
		if in.tx != tx {
			installs = append(installs, in)
		}
	}
	r.installs = installs
	for v, w := range r.writerOf {
		if w == tx {
			delete(r.writerOf, v)
		}
	}
	without := func(trs []trackedRead) []trackedRead {
		kept := trs[:0]
		for _, tr := range trs {
			if tr.tx != tx {
				kept = append(kept, tr)
			}
		}
		return kept
	}
	r.pending, r.resolved = without(r.pending), without(r.resolved)
	if len(r.installs)+len(r.writerOf)+len(r.pending)+len(r.resolved) == 0 {
		delete(g.rows, rk)
	}
}

// firstReport records a finding's dedup key against its participants, so the
// key lives exactly as long as they all do; false means it was reported
// before.
func (g *Graph) firstReport(key string, txs []uint64) bool {
	if _, dup := g.reported[key]; dup {
		return false
	}
	g.reported[key] = struct{}{}
	for _, id := range txs {
		if t := g.txs[id]; t != nil {
			t.findKeys = append(t.findKeys, key)
		}
	}
	return true
}

// Findings classifies the graph as it stands and returns the anomalies not
// returned by an earlier call, Forbidden set: first the G1a/G1b reads in the
// order Add met them, then the cycles. A cycle is one finding per class and
// participant set for as long as every participant is resident.
func (g *Graph) Findings() []Finding {
	out := g.fresh
	g.fresh = nil
	if g.dirty {
		g.dirty = false
		for _, f := range classify(g.adj, func(tx uint64) string { return g.txs[tx].level }) {
			ids := append([]uint64(nil), f.Txs...)
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			if g.firstReport(fmt.Sprint(f.Anomaly, ids), ids) {
				out = append(out, f)
			}
		}
	}
	for i := range out {
		f := &out[i]
		for _, lvl := range f.Levels {
			if !Allowed(lvl)[f.Anomaly] {
				f.Forbidden = true
				break
			}
		}
	}
	return out
}
