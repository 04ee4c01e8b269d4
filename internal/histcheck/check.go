package histcheck

import (
	"fmt"
	"sort"
	"strings"
)

// Anomaly names one Adya phenomenon the checker detects.
type Anomaly string

const (
	// G0 (write cycle): a cycle of only ww edges. Proscribed at every level.
	G0 Anomaly = "G0"
	// G1a (aborted read): a committed transaction read a version installed
	// by a transaction that aborted.
	G1a Anomaly = "G1a"
	// G1b (intermediate read): a committed transaction read a version that
	// was not the writer's final write to that item.
	G1b Anomaly = "G1b"
	// G1c (circular information flow): a cycle of ww and wr edges with at
	// least one wr edge.
	G1c Anomaly = "G1c"
	// GSingle (single anti-dependency cycle): a cycle with exactly one rw
	// edge — Lost Update is the canonical instance. Proscribed by snapshot
	// isolation and above.
	GSingle Anomaly = "G-single"
	// G2Item (item anti-dependency cycle): a cycle with two or more rw
	// edges over item reads — Write Skew is the canonical instance.
	// Proscribed only by serializability.
	G2Item Anomaly = "G2-item"
)

// Allowed returns the anomaly classes an isolation level admits, keyed by
// the level names storage.IsolationLevel.String() produces. The sets encode
// this engine's ladder (see internal/storage/iso.go): READ COMMITTED and
// REPEATABLE READ write last-writer-wins, so both admit Lost Update
// (G-single) and Write Skew (G2-item); SNAPSHOT ISOLATION adds
// first-committer-wins, which removes G-single but keeps G2-item; the two
// serializable levels admit nothing. G0 and G1 are forbidden everywhere —
// the MVCC engine must never exhibit them at any level, which is what makes
// the checker an engine-correctness oracle and not just an anomaly census.
func Allowed(level string) map[Anomaly]bool {
	switch strings.ToUpper(strings.TrimSpace(level)) {
	case "READ COMMITTED", "REPEATABLE READ":
		return map[Anomaly]bool{GSingle: true, G2Item: true}
	case "SNAPSHOT ISOLATION", "SNAPSHOT":
		return map[Anomaly]bool{G2Item: true}
	default:
		// SERIALIZABLE, SERIALIZABLE 2PL, and anything unknown: strict.
		return map[Anomaly]bool{}
	}
}

// Finding is one detected anomaly with its participating transactions and a
// human-readable witness (the dependency cycle, or the offending read).
type Finding struct {
	Anomaly Anomaly
	// Txs are the participating committed transactions, in cycle order for
	// the cyclic phenomena.
	Txs []uint64
	// Levels are the isolation levels of Txs, index-aligned.
	Levels []string
	// Witness is the printable evidence, e.g.
	// "T5 --rw[users r3: read v2, overwritten by v7]--> T9 --ww[...]--> T5".
	Witness string
	// Forbidden reports whether any participating transaction ran at a
	// level that proscribes this anomaly class.
	Forbidden bool
}

// Report is the checker's verdict over one history.
type Report struct {
	Transactions int
	Committed    int
	Aborted      int
	// Levels are the distinct isolation levels seen, sorted.
	Levels []string
	// Edges counts direct-serialization-graph edges by kind.
	Edges map[string]int
	// Findings are the detected anomalies, forbidden ones first.
	Findings []Finding
}

// Pass reports whether every detected anomaly is admitted by the isolation
// levels of the transactions it involves.
func (r *Report) Pass() bool {
	for _, f := range r.Findings {
		if f.Forbidden {
			return false
		}
	}
	return true
}

// Has reports whether an anomaly class was detected at all.
func (r *Report) Has(a Anomaly) bool {
	for _, f := range r.Findings {
		if f.Anomaly == a {
			return true
		}
	}
	return false
}

// Classes returns the distinct anomaly classes detected, sorted.
func (r *Report) Classes() []Anomaly {
	seen := map[Anomaly]bool{}
	for _, f := range r.Findings {
		seen[f.Anomaly] = true
	}
	out := make([]Anomaly, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the report: a one-line summary, then one line per finding.
func (r *Report) String() string {
	var b strings.Builder
	verdict := "PASS"
	if !r.Pass() {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "%s: %d txs (%d committed, %d aborted), levels %s, edges ww=%d wr=%d rw=%d",
		verdict, r.Transactions, r.Committed, r.Aborted,
		strings.Join(r.Levels, "/"), r.Edges["ww"], r.Edges["wr"], r.Edges["rw"])
	if len(r.Findings) == 0 {
		b.WriteString(", no anomalies")
		return b.String()
	}
	for _, f := range r.Findings {
		status := "admitted"
		if f.Forbidden {
			status = "FORBIDDEN"
		}
		fmt.Fprintf(&b, "\n  %s (%s): %s", f.Anomaly, status, f.Witness)
	}
	return b.String()
}

// Check builds the direct serialization graph of a whole history and returns
// the anomalies it contains. Transactions with no commit or abort event (still
// in flight when the history was captured) are ignored, as are their writes.
func Check(events []Event) *Report {
	g := graphOf(events)
	rep := &Report{Edges: make(map[string]int, len(g.kinds))}
	for k, n := range g.kinds {
		rep.Edges[edgeKind(k).String()] = n
	}
	levels := map[string]bool{}
	for _, t := range g.txs {
		rep.Transactions++
		if t.committed {
			rep.Committed++
		}
		if t.aborted {
			rep.Aborted++
		}
		if t.level != "" && !levels[t.level] {
			levels[t.level] = true
			rep.Levels = append(rep.Levels, t.level)
		}
	}
	sort.Strings(rep.Levels)
	rep.Findings = g.Findings()
	sort.SliceStable(rep.Findings, func(i, j int) bool {
		return rep.Findings[i].Forbidden && !rep.Findings[j].Forbidden
	})
	return rep
}
