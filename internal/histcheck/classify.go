package histcheck

import (
	"fmt"
	"sort"
	"strings"
)

// kindSet is a set of edge kinds.
type kindSet uint8

func (s kindSet) has(k edgeKind) bool { return s&(1<<k) != 0 }

const dependencies = kindSet(1<<edgeWW | 1<<edgeWR)

// cycleClasses defines the cyclic phenomena. A cycle belongs to a class when
// it runs through an edge of kind seed and returns from that edge's head to
// its tail over edges in back — crossing at least one more rw edge if moreRW.
// Each row is searched on its own: one rw edge can close a G-single cycle over
// one return path and a G2-item cycle over another, and because a row only
// asks whether some admitted path exists, a class once present stays present
// as edges are added. A named sub-class is one more row.
var cycleClasses = []struct {
	class  Anomaly
	seed   edgeKind
	back   kindSet
	moreRW bool
}{
	{G0, edgeWW, 1 << edgeWW, false},
	{G1c, edgeWR, dependencies, false},
	{GSingle, edgeRW, dependencies, false},
	{G2Item, edgeRW, dependencies | 1<<edgeRW, true},
}

// maxWitnessesPerClass bounds how many findings of one anomaly class a
// single strongly connected component contributes, so pathological histories
// stay readable. Presence/absence per class is still exact.
const maxWitnessesPerClass = 2

// classify returns the cyclic findings of a graph: per strongly connected
// component and class, the first maxWitnessesPerClass seed edges (nodes
// ascending, edges in insertion order) that close a cycle, each with a
// shortest return path. The output is a function of adj's contents alone.
func classify(adj map[uint64][]edge, level func(tx uint64) string) []Finding {
	var out []Finding
	for _, comp := range sccs(adj) {
		if len(comp) < 2 {
			continue // self-edges are never added, so singletons are acyclic
		}
		in := make(map[uint64]bool, len(comp))
		for _, n := range comp {
			in[n] = true
		}
		for _, c := range cycleClasses {
			found := 0
		seeds:
			for _, n := range comp {
				for _, e := range adj[n] {
					if e.kind != c.seed || !in[e.to] {
						continue
					}
					path := returnPath(adj, e.to, e.from, in, c.back, c.moreRW)
					if path == nil {
						continue
					}
					cycle := append([]edge{e}, path...)
					f := Finding{Anomaly: c.class, Witness: formatCycle(cycle)}
					for _, ce := range cycle {
						f.Txs = append(f.Txs, ce.from)
						f.Levels = append(f.Levels, level(ce.from))
					}
					out = append(out, f)
					if found++; found == maxWitnessesPerClass {
						break seeds
					}
				}
			}
		}
	}
	return out
}

// returnPath returns the edges of a shortest path from src to dst over edges
// whose kind is in admit, restricted to nodes with in[node] and never
// extending through dst, or nil. With needRW the path must cross an rw edge,
// so the search runs over (node, crossed-an-rw) states and may visit a node
// once per flag value.
func returnPath(adj map[uint64][]edge, src, dst uint64, in map[uint64]bool, admit kindSet, needRW bool) []edge {
	type state struct {
		node uint64
		rw   bool
	}
	type step struct {
		prev state
		via  edge
	}
	start := state{node: src}
	parent := map[state]step{start: {}}
	queue := []state{start}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, e := range adj[s.node] {
			ns := state{e.to, s.rw || e.kind == edgeRW}
			if _, seen := parent[ns]; seen || !admit.has(e.kind) || !in[e.to] {
				continue
			}
			parent[ns] = step{s, e}
			if e.to != dst {
				queue = append(queue, ns)
				continue
			}
			if needRW && !ns.rw {
				continue // reached dst without an rw edge: a dead end, not a path
			}
			var path []edge
			for at := ns; at != start; at = parent[at].prev {
				path = append(path, parent[at].via)
			}
			for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
				path[i], path[j] = path[j], path[i]
			}
			return path
		}
	}
	return nil
}

// formatCycle renders a cycle as "T1 --kind[label]--> T2 --...--> T1".
func formatCycle(cycle []edge) string {
	var b strings.Builder
	for _, e := range cycle {
		fmt.Fprintf(&b, "T%d --%s[%s]--> ", e.from, e.kind, e.label)
	}
	fmt.Fprintf(&b, "T%d", cycle[0].from)
	return b.String()
}

// sccs computes strongly connected components with an iterative Tarjan, so
// long dependency chains cannot overflow the goroutine stack. Roots are tried
// in ascending order and every component is returned sorted, so the result
// does not depend on map iteration order.
func sccs(adj map[uint64][]edge) [][]uint64 {
	roots := make([]uint64, 0, len(adj))
	for n := range adj {
		roots = append(roots, n)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })

	index := map[uint64]int{}
	low := map[uint64]int{}
	onStack := map[uint64]bool{}
	var stack []uint64
	var comps [][]uint64
	visit := func(n uint64) {
		index[n], low[n] = len(index), len(index)
		stack = append(stack, n)
		onStack[n] = true
	}

	type frame struct {
		node uint64
		ei   int
	}
	for _, root := range roots {
		if _, seen := index[root]; seen {
			continue
		}
		visit(root)
		frames := []frame{{node: root}}
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if edges := adj[f.node]; f.ei < len(edges) {
				to := edges[f.ei].to
				f.ei++
				if _, seen := index[to]; !seen {
					visit(to)
					frames = append(frames, frame{node: to})
				} else if onStack[to] && index[to] < low[f.node] {
					low[f.node] = index[to]
				}
				continue
			}
			// Node finished: pop, propagate lowlink, maybe emit component.
			n := f.node
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := frames[len(frames)-1].node; low[n] < low[p] {
					low[p] = low[n]
				}
			}
			if low[n] != index[n] {
				continue
			}
			var comp []uint64
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[m] = false
				comp = append(comp, m)
				if m == n {
					break
				}
			}
			sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
			comps = append(comps, comp)
		}
	}
	return comps
}
