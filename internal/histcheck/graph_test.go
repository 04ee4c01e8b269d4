package histcheck

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// referenceEdges is the batch construction of the direct serialization graph:
// the whole history at once, version orders sorted at the end, one pass over
// the reads. It shares nothing with Graph but the key types and returns the
// number of justifications per (from, to, kind) edge. Events of a transaction
// after its commit or abort do not count.
func referenceEdges(events []Event) map[edgeKey]int {
	committed, closed := map[uint64]bool{}, map[uint64]bool{}
	var counted []Event
	for _, e := range events {
		if closed[e.Tx] {
			continue
		}
		counted = append(counted, e)
		if e.Kind == KindCommit || e.Kind == KindAbort {
			closed[e.Tx], committed[e.Tx] = true, e.Kind == KindCommit
		}
	}
	type version struct {
		rk rowKey
		v  uint64
	}
	type installed struct{ v, tx uint64 }
	writerOf := map[version]uint64{}
	order := map[rowKey][]installed{}
	for _, e := range counted {
		if e.Kind != KindWrite || e.Version == 0 {
			continue
		}
		rk := rowKey{e.Table, e.Row}
		if _, dup := writerOf[version{rk, e.Version}]; !dup {
			writerOf[version{rk, e.Version}] = e.Tx
		}
		if committed[e.Tx] {
			order[rk] = append(order[rk], installed{e.Version, e.Tx})
		}
	}
	edges := map[edgeKey]int{}
	add := func(from, to uint64, kind edgeKind) {
		if from != to {
			edges[edgeKey{from, to, kind}]++
		}
	}
	for _, ins := range order {
		// Stable: equal versions stay in write-event order.
		sort.SliceStable(ins, func(i, j int) bool { return ins[i].v < ins[j].v })
		for i := 1; i < len(ins); i++ {
			add(ins[i-1].tx, ins[i].tx, edgeWW)
		}
	}
	for _, e := range counted {
		if e.Kind != KindRead || e.Own || e.Observed == 0 || !committed[e.Tx] {
			continue
		}
		rk := rowKey{e.Table, e.Row}
		if w, known := writerOf[version{rk, e.Observed}]; known && committed[w] {
			add(w, e.Tx, edgeWR)
		}
		ins := order[rk]
		if i := sort.Search(len(ins), func(i int) bool { return ins[i].v > e.Observed }); i < len(ins) {
			add(e.Tx, ins[i].tx, edgeRW)
		}
	}
	return edges
}

// feedGraph adds events one at a time, classifying after every commit and
// abort the way the live watcher does, and returns the graph with the classes
// seen along the way.
func feedGraph(events []Event) (*Graph, map[Anomaly]bool) {
	g, seen := NewGraph(), map[Anomaly]bool{}
	for _, e := range events {
		g.Add(e)
		if e.Kind == KindCommit || e.Kind == KindAbort {
			for _, f := range g.Findings() {
				seen[f.Anomaly] = true
			}
		}
	}
	return g, seen
}

// checkEdges fails unless g holds exactly the reference's edges and its
// adjacency, reverse index and per-kind counts agree with them.
func checkEdges(t *testing.T, g *Graph, events []Event) {
	t.Helper()
	want := referenceEdges(events)
	if !reflect.DeepEqual(g.refs, want) {
		t.Fatalf("edge multiset differs from the reference\ngraph     %v\nreference %v\n%s", g.refs, want, dumpEvents(events))
	}
	var kinds [3]int
	listed := 0
	for from, out := range g.adj {
		for _, e := range out {
			listed++
			kinds[e.kind]++
			if e.from != from || g.refs[edgeKey{e.from, e.to, e.kind}] == 0 || g.in[e.to][e.from] == 0 {
				t.Fatalf("adjacency entry %+v has no justification or reverse entry", e)
			}
		}
	}
	if listed != len(want) || kinds != g.kinds {
		t.Fatalf("adjacency lists %d edges %v, want %d %v", listed, kinds, len(want), g.kinds)
	}
}

func classSet(rep *Report) map[Anomaly]bool {
	m := map[Anomaly]bool{}
	for _, c := range rep.Classes() {
		m[c] = true
	}
	return m
}

func dumpEvents(events []Event) string {
	var b bytes.Buffer
	_ = WriteJSONL(&b, events)
	return b.String()
}

// engineOrdered reports whether events respect what Add documents: every
// read's observed version, if the history writes it at all, was written
// before the read.
func engineOrdered(events []Event) bool {
	type version struct {
		rk rowKey
		v  uint64
	}
	written, readEarly := map[version]bool{}, map[version]bool{}
	for _, e := range events {
		k := version{rowKey{e.Table, e.Row}, e.Observed}
		switch {
		case e.Kind == KindRead && e.Observed != 0 && !written[k]:
			readEarly[k] = true
		case e.Kind == KindWrite && e.Version != 0:
			k.v = e.Version
			if readEarly[k] {
				return false
			}
			written[k] = true
		}
	}
	return true
}

// installInOrder renumbers versions so that every row's committed installs
// arrive in ascending version order, the way the engine emits them: per row,
// write events rank by (position of the writer's commit, own position), with
// never-committed writers last. Reads follow the first write of the version
// they observed; a read of a version nobody wrote observes version 1, below
// every renumbered one.
func installInOrder(events []Event) []Event {
	commitAt, closed := map[uint64]int{}, map[uint64]bool{}
	for i, e := range events {
		if e.Kind == KindCommit && !closed[e.Tx] {
			commitAt[e.Tx] = i
		}
		closed[e.Tx] = closed[e.Tx] || e.Kind == KindCommit || e.Kind == KindAbort
	}
	byRow := map[rowKey][]int{}
	for i, e := range events {
		if e.Kind == KindWrite && e.Version != 0 {
			byRow[rowKey{e.Table, e.Row}] = append(byRow[rowKey{e.Table, e.Row}], i)
		}
	}
	type version struct {
		rk rowKey
		v  uint64
	}
	out, renumbered := append([]Event(nil), events...), map[version]uint64{}
	for rk, idx := range byRow {
		at := func(i int) int {
			if c, ok := commitAt[events[i].Tx]; ok && c > i {
				return c
			}
			return len(events)
		}
		ranked := append([]int(nil), idx...)
		sort.SliceStable(ranked, func(a, b int) bool { return at(ranked[a]) < at(ranked[b]) })
		for rank, i := range ranked {
			out[i].Version = uint64(rank) + 2
		}
		for _, i := range idx {
			if k := (version{rk, events[i].Version}); renumbered[k] == 0 {
				renumbered[k] = out[i].Version
			}
		}
	}
	for i, e := range events {
		if e.Kind == KindRead && e.Observed != 0 {
			if out[i].Observed = renumbered[version{rowKey{e.Table, e.Row}, e.Observed}]; out[i].Observed == 0 {
				out[i].Observed = 1
			}
		}
	}
	return out
}

// FuzzGraphMatchesReference feeds a JSONL history to Graph one event at a
// time and demands the final edge multiset equal the batch reference's — on
// the history as given, where installs may arrive out of version order, and
// on its install-in-order renumbering, where additionally nothing is
// retargeted and classifying along the way finds exactly the classes of the
// final graph. The seed corpus is the 150 histories of the randomized
// live/offline parity test this replaces.
func FuzzGraphMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, jsonl []byte) {
		events, err := ReadJSONL(bytes.NewReader(jsonl))
		if err != nil || !engineOrdered(events) {
			t.Skip()
		}
		g, along := feedGraph(events)
		checkEdges(t, g, events)
		final := classSet(Check(events))
		for c := range final {
			if !along[c] {
				t.Errorf("%s is in the final graph but was never reported along the way\n%s", c, dumpEvents(events))
			}
		}
		if g.Retargets() == 0 && !reflect.DeepEqual(along, final) {
			t.Errorf("no retargets, yet classes along the way %v != final %v\n%s", along, final, dumpEvents(events))
		}

		ordered := installInOrder(events)
		g, along = feedGraph(ordered)
		checkEdges(t, g, ordered)
		if final = classSet(Check(ordered)); g.Retargets() != 0 || !reflect.DeepEqual(along, final) {
			t.Errorf("in-order installs: %d retargets, classes along the way %v, final %v\n%s",
				g.Retargets(), along, final, dumpEvents(ordered))
		}
	})
}

// seedHistories loads the fuzz seed corpus.
func seedHistories(t *testing.T) [][]Event {
	t.Helper()
	files, err := filepath.Glob("testdata/fuzz/FuzzGraphMatchesReference/parity-*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no seed corpus: %v", err)
	}
	var out [][]Event
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		arg := strings.TrimSuffix(strings.TrimPrefix(strings.SplitN(string(raw), "\n", 2)[1], "[]byte("), ")\n")
		jsonl, err := strconv.Unquote(arg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		events, err := ReadJSONL(strings.NewReader(jsonl))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, events)
	}
	return out
}

// dumpGraph renders the dependency state of g — edges with their labels in
// adjacency order, rows, transactions — without arrival numbers, which differ
// between a history and the same history minus one transaction.
func dumpGraph(g *Graph) string {
	var lines []string
	for k, n := range g.refs {
		lines = append(lines, fmt.Sprintf("ref %v x%d", k, n))
	}
	for from, out := range g.adj {
		lines = append(lines, fmt.Sprintf("adj %d %v in %v", from, out, g.in[from]))
	}
	bare := func(trs []trackedRead) (out []string) {
		for _, tr := range trs {
			out = append(out, fmt.Sprintf("T%d@%d->T%d@%d", tr.tx, tr.observed, tr.succ.tx, tr.succ.version))
		}
		return out
	}
	for rk, r := range g.rows {
		var order []string
		for _, in := range r.installs {
			order = append(order, fmt.Sprintf("v%d:T%d", in.version, in.tx))
		}
		lines = append(lines, fmt.Sprintf("row %s %v writers %v pending %v resolved %v", rk, order, r.writerOf, bare(r.pending), bare(r.resolved)))
	}
	for id, t := range g.txs {
		var writes []string
		for _, w := range t.writes {
			writes = append(writes, fmt.Sprintf("%s v%d", w.rk, w.version))
		}
		lines = append(lines, fmt.Sprintf("tx %d %q c=%v a=%v reads %v writes %v final %v deferred %d unresolved %d",
			id, t.level, t.committed, t.aborted, t.reads, writes, t.finalWrite, len(t.deferred), t.unresolved))
	}
	sort.Strings(lines)
	return fmt.Sprintf("%s\nkinds %v reads %d", strings.Join(lines, "\n"), g.kinds, g.reads)
}

// TestGraphEvictIsExact pins Evict's contract on every terminated transaction
// of every seed history: if it touches an edge, eviction must admit the loss;
// if eviction reports no loss, the graph must equal the one built from the
// history without that transaction; and evicting everyone leaves nothing
// behind, finding dedup keys included.
func TestGraphEvictIsExact(t *testing.T) {
	exact := 0
	for hi, events := range seedHistories(t) {
		full, _ := feedGraph(events)
		for _, id := range txIDs(events) {
			if tx := full.txs[id]; !tx.committed && !tx.aborted {
				continue
			}
			touched := false
			for k := range full.refs {
				touched = touched || k.from == id || k.to == id
			}
			g, _ := feedGraph(events)
			lost := g.Evict(id)
			if touched && !lost {
				t.Fatalf("history %d: T%d carries edges but Evict reported no loss", hi, id)
			}
			if lost {
				continue
			}
			exact++
			without, _ := feedGraph(dropTx(events, id))
			if got, want := dumpGraph(g), dumpGraph(without); got != want {
				t.Fatalf("history %d: evicting T%d left\n%s\nwant the graph of the history without it\n%s", hi, id, got, want)
			}
		}
		for _, id := range txIDs(events) {
			full.Evict(id)
		}
		if got := dumpGraph(full); got != dumpGraph(NewGraph()) || len(full.reported) != 0 || len(full.in) != 0 {
			t.Fatalf("history %d: evicting every transaction left %d dedup keys, %d reverse entries and\n%s", hi, len(full.reported), len(full.in), got)
		}
	}
	if exact < 50 {
		t.Errorf("only %d lossless evictions exercised; the corpus no longer covers the exact path", exact)
	}

	// Dependency state that is not an edge: a read awaiting a successor, and a
	// read parked on a writer that has not terminated.
	b := &hb{}
	b.begin(1, "READ COMMITTED")
	b.begin(2, "READ COMMITTED")
	b.begin(3, "READ COMMITTED")
	b.write(1, "t", 1, 5)
	b.read(2, "t", 1, 5) // T1 still open at T2's commit: parked
	b.commit(2)
	b.read(3, "t", 9, 4) // nobody installed a successor of t r9 v4: pending
	b.commit(3)
	for _, id := range []uint64{2, 3} {
		g, _ := feedGraph(b.events)
		if len(g.refs) != 0 {
			t.Fatalf("unexpected edges %v", g.refs)
		}
		if !g.Evict(id) {
			t.Errorf("T%d has no edge but an unresolved read; Evict must report the loss", id)
		}
	}
}

// TestFindingsReportedOncePerResidency pins the dedup rule at the graph: a
// cycle is returned once however often the graph is reclassified, and again
// only after a participant was evicted and the cycle re-formed.
func TestFindingsReportedOncePerResidency(t *testing.T) {
	g, _ := feedGraph(nil)
	for _, e := range lostUpdate("READ COMMITTED") {
		g.Add(e)
	}
	if fs := g.Findings(); len(fs) != 1 || fs[0].Anomaly != GSingle {
		t.Fatalf("first classification returned %v, want one G-single", fs)
	}
	b := &hb{}
	b.begin(8, "READ COMMITTED")
	b.begin(9, "READ COMMITTED")
	b.write(8, "other", 1, 1)
	b.commit(8)
	b.write(9, "other", 1, 2)
	b.commit(9)
	for _, e := range b.events {
		g.Add(e)
	}
	if !g.dirty {
		t.Fatal("a new ww edge did not dirty the graph")
	}
	if fs := g.Findings(); len(fs) != 0 {
		t.Fatalf("reclassification returned the resident cycle again: %v", fs)
	}
	if len(g.reported) != 1 {
		t.Fatalf("dedup set holds %d keys, want 1", len(g.reported))
	}
	for id := range g.txs {
		g.Evict(id)
	}
	if len(g.reported) != 0 {
		t.Errorf("dedup set holds %v after every participant was evicted", g.reported)
	}
}

// TestClassifierTable runs one minimal cycle per row of cycleClasses through
// classify, then the monotonicity case: one rw edge that closes a G-single
// cycle over a ww return path and a G2-item cycle over a return path with a
// second rw edge. Both classes must be found, and adding the second cycle's
// edges must not lose the first.
func TestClassifierTable(t *testing.T) {
	graph := func(edges ...edge) map[uint64][]edge {
		adj := map[uint64][]edge{}
		for _, e := range edges {
			e.label = fmt.Sprintf("%d%s%d", e.from, e.kind, e.to)
			adj[e.from] = append(adj[e.from], e)
		}
		return adj
	}
	ww := func(from, to uint64) edge { return edge{from: from, to: to, kind: edgeWW} }
	wr := func(from, to uint64) edge { return edge{from: from, to: to, kind: edgeWR} }
	rw := func(from, to uint64) edge { return edge{from: from, to: to, kind: edgeRW} }
	classes := func(adj map[uint64][]edge) string {
		seen := map[Anomaly]bool{}
		for _, f := range classify(adj, func(uint64) string { return "" }) {
			seen[f.Anomaly] = true
			if len(f.Txs) != len(f.Levels) || !strings.HasSuffix(f.Witness, fmt.Sprintf("--> T%d", f.Txs[0])) {
				t.Errorf("malformed finding %+v", f)
			}
		}
		var out []string
		for a := range seen {
			out = append(out, string(a))
		}
		sort.Strings(out)
		return strings.Join(out, " ")
	}

	minimal := map[Anomaly]map[uint64][]edge{
		G0:      graph(ww(1, 2), ww(2, 1)),
		G1c:     graph(wr(1, 2), ww(2, 1)),
		GSingle: graph(rw(1, 2), ww(2, 1)),
		G2Item:  graph(rw(1, 2), rw(2, 1)),
	}
	for _, row := range cycleClasses {
		adj, ok := minimal[row.class]
		if !ok {
			t.Errorf("table row %s has no minimal cycle in this test", row.class)
			continue
		}
		if got := classes(adj); got != string(row.class) {
			t.Errorf("minimal %s cycle classified as [%s]", row.class, got)
		}
	}
	if got := classes(graph(rw(1, 2), wr(2, 3), ww(3, 1), ww(1, 4))); got != "G-single" {
		t.Errorf("three-node single-rw cycle with a dangling edge classified as [%s]", got)
	}

	single := []edge{rw(1, 2), ww(2, 1)}
	if got := classes(graph(single...)); got != "G-single" {
		t.Fatalf("before the second cycle: [%s]", got)
	}
	both := graph(append(single, rw(2, 3), ww(3, 1))...)
	if got := classes(both); got != "G-single G2-item" {
		t.Errorf("G-single and G2-item sharing rw 1->2 classified as [%s]", got)
	}
	first, second := classify(both, func(uint64) string { return "" }), classify(both, func(uint64) string { return "" })
	if !reflect.DeepEqual(first, second) {
		t.Errorf("classify is not deterministic:\n%v\n%v", first, second)
	}
}
