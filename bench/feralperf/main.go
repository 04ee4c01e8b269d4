// Command feralperf is the repository's benchmark: it assembles the whole
// stack in one process, drives it closed loop with generated feral requests
// and prints end-to-end metrics (--trace 0) or the per-layer budget of a
// traced run (--trace 1). See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number. Its JSON form is the contract's.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	seed    int64
	seconds float64
	trace   bool
	quick   bool
	clients int
	outDir  string
}

func main() {
	var (
		workload  = flag.String("workload", "all", "workload name, or all")
		seed      = flag.Int64("seed", 1, "seed of the request generator")
		seconds   = flag.Float64("seconds", 20, "how long to measure: blocks repeat until this much measured time has passed")
		trace     = flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from traced blocks; unset: one run of each (only the first under -quick)")
		quick     = flag.Bool("quick", false, "one small block per workload (smoke test)")
		outDir    = flag.String("out", filepath.Join("bench", "out"), "directory for data directories and trace files")
		results   = flag.String("results", "", "append each run's result to this JSON file, for -compare")
		compare   = flag.Bool("compare", false, "compare two -results files: feralperf -compare a.json b.json")
		benchmark = flag.String("benchmark", "BENCHMARK.json", "benchmark description, read by -compare")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		worse, err := compareFiles(os.Stdout, *benchmark, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	cfg := config{seed: *seed, seconds: *seconds, quick: *quick, clients: runtime.NumCPU(), outDir: *outDir}
	modes := []bool{*trace > 0}
	if *trace < 0 && !*quick {
		modes = []bool{false, true}
	}
	run := specs
	if *workload != "all" {
		s := specByName(*workload)
		if s == nil {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		run = []*spec{s}
	}
	for _, s := range run {
		for _, cfg.trace = range modes {
			res, err := runWorkload(os.Stdout, s, cfg)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", s.name, err))
			}
			if *results != "" {
				if err := appendResult(*results, s.name, cfg, res); err != nil {
					fatal(err)
				}
			}
			line, err := json.Marshal(res)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%s\n", line)
			if !res.Correct {
				os.Exit(1)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "feralperf:", err)
	os.Exit(2)
}

// runWorkload repeats fixed-count blocks, each on a fresh stack, until
// cfg.seconds of measured time have passed, and reports the median block.
// With tracing on, blocks alternate untraced and traced, so the traced
// throughput has an untraced neighbour to be compared with.
func runWorkload(w io.Writer, s *spec, cfg config) (*result, error) {
	sz := s.full
	if cfg.quick {
		sz = s.quick
	}
	reqs := generate(s, cfg.seed, sz)

	var plain, traced []*block
	var measured time.Duration
	for i := 0; ; i++ {
		trace := cfg.trace && i%2 == 1
		b, err := runBlock(s, sz, reqs, cfg.clients, cfg.outDir, trace)
		if err != nil {
			return nil, err
		}
		measured += b.wall
		if trace {
			traced = append(traced, b)
		} else {
			plain = append(plain, b)
		}
		if !trace || len(traced) > 1 {
			// Only the first traced block's spans are written out; holding the
			// rest would grow the heap under the later blocks.
			b.samples, b.tracers = nil, nil
		}
		enough := len(plain) > 0 && (!cfg.trace || len(traced) > 0)
		if enough && (cfg.quick || measured.Seconds() >= cfg.seconds) {
			break
		}
	}

	res := &result{Metrics: make(map[string]metric)}
	for _, b := range append(append([]*block(nil), plain...), traced...) {
		res.Attempted += b.requests
		res.Failed += b.failed
	}
	res.Correct = res.Failed == 0

	fmt.Fprintf(w, "# %s seed=%d clients=%d workers=%d preload=%d warm-up=%d measured=%d requests/block\n",
		s.name, cfg.seed, cfg.clients, cfg.clients, sz.preload, sz.warm, sz.measured)
	if cfg.trace {
		if err := reportLayers(w, s, cfg, plain, traced, res); err != nil {
			return nil, err
		}
	} else {
		reportEndToEnd(w, plain, res)
	}
	return res, nil
}

func median(xs []float64) float64 {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func medianOf(blocks []*block, f func(*block) float64) float64 {
	xs := make([]float64, len(blocks))
	for i, b := range blocks {
		xs[i] = f(b)
	}
	return median(xs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// reportEndToEnd prints what a user of the stack sees, each the median over
// the run's blocks, then the informational figures that are not gated.
func reportEndToEnd(w io.Writer, blocks []*block, res *result) {
	put := func(name string, v float64, unit string) {
		res.Metrics[name] = metric{v, unit}
		fmt.Fprintf(w, "%-16s %14.4f %s\n", name, v, unit)
	}
	n := len(blocks[0].latencies)
	fmt.Fprintf(w, "blocks=%d latency samples/block=%d (%d beyond p99)\n", len(blocks), n, n/100)
	for i, b := range blocks {
		fmt.Fprintf(w, "block %2d: %10.1f 1/s  p50 %.4f ms  p99 %.4f ms  set-up %.4f s\n",
			i, b.throughput(), ms(b.percentile(0.50)), ms(b.percentile(0.99)), b.setup.Seconds())
	}
	put("throughput_rps", medianOf(blocks, (*block).throughput), "1/s")
	put("p50_ms", medianOf(blocks, func(b *block) float64 { return ms(b.percentile(0.50)) }), "ms")
	put("p99_ms", medianOf(blocks, func(b *block) float64 { return ms(b.percentile(0.99)) }), "ms")
	put("setup_s", medianOf(blocks, func(b *block) float64 { return b.setup.Seconds() }), "s")

	info := func(name string, v float64, unit string) {
		fmt.Fprintf(w, "%-16s %14.4f %s (informational)\n", name, v, unit)
	}
	info("failed_share", float64(res.Failed)/float64(res.Attempted), "share")
	info("allocs_per_req", medianOf(blocks, func(b *block) float64 { return float64(b.allocs) / float64(b.requests) }), "count")
	info("heap_mb", medianOf(blocks, func(b *block) float64 { return float64(b.heapBytes) / 1e6 }), "MB")
	info("duplicates", medianOf(blocks, func(b *block) float64 { return float64(b.duplicates) }), "count")
	info("orphans", medianOf(blocks, func(b *block) float64 { return float64(b.orphans) }), "count")
}

// reportLayers prints the traced blocks' layer budget and counts, summed
// over every traced block of the run and divided by its requests, and writes
// the first traced block's spans to <out>/trace-<workload>.jsonl.
func reportLayers(w io.Writer, s *spec, cfg config, plain, traced []*block, res *result) error {
	put := func(name string, v float64, unit string) {
		res.Metrics[name] = metric{v, unit}
		fmt.Fprintf(w, "%-28s %14.4f %s\n", name, v, unit)
	}
	var sums layerSums
	measured, lifetime := make(counters), make(counters)
	var rejected int
	var walBytes int64
	for _, b := range traced {
		sums.add(b.sums)
		measured.add(b.measured)
		lifetime.add(b.lifetime)
		rejected += b.rejected
		walBytes += b.walBytes
	}
	reqs := float64(sums.requests)
	perReq := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / reqs }
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}

	fmt.Fprintf(w, "traced blocks=%d requests=%d; times are mean microseconds per request\n", len(traced), sums.requests)
	put("request.wall_us", perReq(sums.reqWall), "us")
	var accounted time.Duration
	for _, l := range sums.layers() {
		if l.self < 0 {
			return fmt.Errorf("layer %s has negative self time %v: spans do not nest", l.name, l.self)
		}
		accounted += l.self
		put(l.name, perReq(l.self), "us")
		fmt.Fprintf(w, "%-28s %14.2f %% of request wall\n", "", 100*float64(l.self)/float64(sums.reqWall))
	}
	if accounted != sums.reqWall {
		return fmt.Errorf("layers account for %v of %v request wall", accounted, sums.reqWall)
	}

	commits := measured["feraldb_storage_wal_appends_total"]
	var aborts uint64
	for _, r := range abortReasons {
		aborts += measured[abortSeries(r)]
	}
	put("appserver.requests", float64(measured["feraldb_appserver_requests_total"]), "count")
	put("orm.stmts_per_req", float64(sums.stmts)/reqs, "count")
	fmt.Fprintf(w, "%-28s %14.4f count (per committed transaction)\n", "", ratio(uint64(sums.committedStmts), uint64(sums.committed)))
	fmt.Fprintf(w, "%-28s %14.4f count (per rolled-back transaction)\n", "", ratio(uint64(sums.rolledBackStmts), uint64(sums.rolledBack)))
	put("orm.rejected_share", float64(rejected)/reqs, "share")
	put("wire.bytes_per_req", float64(measured["feraldb_wire_read_bytes_total"]+measured["feraldb_wire_written_bytes_total"])/reqs, "B")
	hits, misses := lifetime["feraldb_plancache_hits_total"], lifetime["feraldb_plancache_misses_total"]
	put("sqlexec.plan_hit_ratio", ratio(hits, hits+misses), "share")
	put("storage.commits_per_req", float64(commits)/reqs, "count")
	put("storage.fsyncs_per_commit", ratio(measured["feraldb_storage_wal_fsyncs_total"], commits), "count")
	put("storage.group_batch_txns", ratio(measured["feraldb_storage_group_commit_txns_total"], measured["feraldb_storage_group_commit_frames_total"]), "count")
	put("storage.wal_bytes_per_commit", ratio(uint64(walBytes), commits), "B")
	put("storage.aborts", float64(aborts), "count")
	for _, r := range abortReasons {
		if n := measured[abortSeries(r)]; n > 0 {
			fmt.Fprintf(w, "%-28s %14d count (reason=%s)\n", "", n, r)
		}
	}
	if measured["feraldb_appserver_requests_total"] != uint64(sums.requests) {
		return fmt.Errorf("appserver dispatched %d requests, clients sent %d", measured["feraldb_appserver_requests_total"], sums.requests)
	}

	overhead := 1 - medianOf(traced, (*block).throughput)/medianOf(plain, (*block).throughput)
	put("trace_overhead_share", overhead, "share")

	path := filepath.Join(cfg.outDir, "trace-"+s.name+".jsonl")
	if err := writeTrace(path, traced[0].samples, traced[0].tracers); err != nil {
		return err
	}
	fmt.Fprintf(w, "spans of the first traced block: %s\n", path)
	return nil
}
