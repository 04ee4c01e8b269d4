package histcheck

import (
	"fmt"
	"sort"
)

// AlmostCycle is a wr edge in a history's direct serialization graph that has
// no answering rw edge back: Writer installed a version of (Table, Row) that
// Reader observed, and nothing Reader did was invalidated by a concurrent
// install. It is the directed hunter's steering signal — one rw edge short of
// a G-single or G2-item cycle, and the missing edge appears exactly when the
// reader's read is made stale before it commits. Re-running the workload with
// the writer's commit held until the reader reaches its own commit is the
// perturbation that closes it.
type AlmostCycle struct {
	Writer uint64 // tx id that installed the observed version
	Reader uint64 // tx id that read it and was never anti-depended back
	Table  string
	Row    uint64
}

// String renders the almost-cycle for hunt logs.
func (a AlmostCycle) String() string {
	return fmt.Sprintf("T%d --wr[%s r%d]--> T%d (no rw back-edge)", a.Writer, a.Table, a.Row, a.Reader)
}

// AlmostCycles scans a history for wr edges with no rw edge in the opposite
// direction; see Graph.AlmostCycles.
func AlmostCycles(events []Event) []AlmostCycle { return graphOf(events).AlmostCycles() }

// AlmostCycles returns the wr edges with no rw edge in the opposite
// direction, deduplicated on (writer, reader) with the reader's first
// (table, row) witness kept, in (writer, reader) order. The writer must have
// committed (only installed versions define edges); the reader need only have
// terminated — a reader that observed the writer's install and then rolled
// back is the strongest steering signal of all, since a feral validation that
// refused because it saw the install will proceed once the writer's commit is
// held back. An empty result means every read stayed isolated from every
// concurrent writer — nothing to steer toward, so the hunter falls back to
// random schedules.
func (g *Graph) AlmostCycles() []AlmostCycle {
	type pair struct{ from, to uint64 }
	wr := map[pair]AlmostCycle{}
	rw := map[pair]bool{}
	for id, t := range g.txs {
		if !t.committed && !t.aborted {
			continue
		}
		for _, rd := range t.reads {
			r := g.rows[rd.rk]
			if r == nil {
				continue
			}
			if w, ok := r.installer(rd.observed); ok && w != id {
				if _, dup := wr[pair{w, id}]; !dup {
					wr[pair{w, id}] = AlmostCycle{Writer: w, Reader: id, Table: rd.rk.table, Row: rd.rk.row}
				}
			}
			if i := r.successor(rd.observed); i < len(r.installs) && r.installs[i].tx != id {
				rw[pair{id, r.installs[i].tx}] = true
			}
		}
	}
	var out []AlmostCycle
	for p, a := range wr {
		if !rw[pair{p.to, p.from}] {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Writer != out[j].Writer {
			return out[i].Writer < out[j].Writer
		}
		return out[i].Reader < out[j].Reader
	})
	return out
}

// MinimizeWitness shrinks a history that exhibits target down to a locally
// minimal sub-history that still exhibits it, by greedy delta debugging:
// first whole transactions are dropped (every tx removed one at a time, to a
// fixpoint), then individual read/write events of the survivors. The result
// replays through Check — and therefore cmd/feralcheck — with the anomaly
// intact. Relative event order is preserved, so the minimized history remains
// a plausible execution prefix projection.
func MinimizeWitness(events []Event, target Anomaly) []Event {
	cur := append([]Event(nil), events...)
	if !Check(cur).Has(target) {
		return cur
	}

	// Pass 1: drop whole transactions to a fixpoint.
	for {
		shrunk := false
		for _, id := range txIDs(cur) {
			cand := dropTx(cur, id)
			if len(cand) < len(cur) && Check(cand).Has(target) {
				cur = cand
				shrunk = true
			}
		}
		if !shrunk {
			break
		}
	}

	// Pass 2: drop individual read/write events. Begin/commit/abort events
	// stay — they carry the level and outcome the classification depends on.
	for {
		shrunk := false
		for i := 0; i < len(cur); i++ {
			if cur[i].Kind != KindRead && cur[i].Kind != KindWrite && cur[i].Kind != KindPredRead {
				continue
			}
			cand := append(append([]Event(nil), cur[:i]...), cur[i+1:]...)
			if Check(cand).Has(target) {
				cur = cand
				shrunk = true
				i--
			}
		}
		if !shrunk {
			break
		}
	}
	return cur
}

// txIDs returns the distinct transaction ids in events, ascending.
func txIDs(events []Event) []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for i := range events {
		if !seen[events[i].Tx] {
			seen[events[i].Tx] = true
			out = append(out, events[i].Tx)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// dropTx returns events without any event of transaction id.
func dropTx(events []Event, id uint64) []Event {
	out := make([]Event, 0, len(events))
	for i := range events {
		if events[i].Tx != id {
			out = append(out, events[i])
		}
	}
	return out
}
