// Command feralbench reproduces the paper's tables and figures.
//
// Usage:
//
//	feralbench -experiment all            # everything (paper-scale: minutes)
//	feralbench -experiment fig2 -quick    # one artifact, scaled down
//
// Experiments: table1, table2, fig1, fig2, fig3, fig4, fig5, fig6, fig7,
// safety, ssibug, frameworks, overload, all.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"feralcc/internal/core"
	"feralcc/internal/faultinject"
	"feralcc/internal/obs"
	"feralcc/internal/overload"
	"feralcc/internal/storage"
)

func main() {
	var (
		which   = flag.String("experiment", "all", "experiment id (table1,table2,fig1..fig7,safety,ssibug,frameworks,isolevels,overload,all)")
		quick   = flag.Bool("quick", false, "scale experiment parameters down ~10x")
		seed    = flag.Int64("seed", 2015, "corpus and workload seed")
		think   = flag.Duration("think", time.Millisecond, "simulated application-tier latency per request")
		faults  = flag.String("faults", "", "fault-injection spec applied to every fig2..fig5, isolevels and ssibug cell, e.g. drop=0.01,latency=5ms (see internal/faultinject)")
		dataDir = flag.String("data-dir", "", "run every fig2..fig5, isolevels and ssibug cell against its own durable store under this directory (emptied first); anomaly counts are taken after a restart")
		syncPol = flag.String("sync", "off", "WAL sync policy for durable experiment cells: always|interval|off (only meaningful with -data-dir)")
		metrics = flag.Bool("metrics", true, "append a compact engine metrics snapshot to the output")
		checkH  = flag.Bool("check-history", false, "record each experiment cell's operation history and fail the cell if the offline isolation checker (internal/histcheck) finds an anomaly its isolation level proscribes; failing histories are saved under $HISTCHECK_WITNESS_DIR")
		liveC   = flag.Bool("live-check", false, "attach the streaming anomaly watcher (internal/anomalywatch) to every experiment cell and report live anomaly counts alongside throughput; with -check-history, each cell also gates on live/offline parity")
	)
	flag.Parse()

	study := core.NewStudy()
	study.Seed = *seed
	study.Quick = *quick
	study.ThinkTime = *think
	study.DataDir = *dataDir
	study.CheckHistory = *checkH
	if _, err := storage.ParseSyncPolicy(*syncPol); err != nil {
		fmt.Fprintf(os.Stderr, "feralbench: %v\n", err)
		os.Exit(2)
	}
	study.Sync = *syncPol
	if *dataDir != "" {
		fmt.Printf("durable mode: per-cell stores under %s (wal sync %s), anomaly census after recovery\n\n", *dataDir, *syncPol)
	}
	study.LiveCheck = *liveC
	if *checkH {
		fmt.Printf("history checking armed: every cell gated through the Adya isolation checker\n\n")
	}
	if *liveC {
		fmt.Printf("live anomaly watch armed: every cell streams sampled transactions through the windowed checker\n\n")
	}
	if *faults != "" {
		spec, err := faultinject.ParseSpec(*faults)
		if err != nil {
			fmt.Fprintf(os.Stderr, "feralbench: %v\n", err)
			os.Exit(2)
		}
		study.Faults = spec
		fmt.Printf("fault injection armed: %s (seed %d, retries bounded)\n\n", spec, *seed)
	}

	ids := strings.Split(*which, ",")
	if *which == "all" {
		ids = []string{"table2", "fig1", "table1", "safety", "fig6", "fig7",
			"fig2", "fig3", "fig4", "fig5", "ssibug", "frameworks", "isolevels", "overload"}
	}
	if err := runAll(study, ids, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "feralbench: %v\n", err)
		os.Exit(1)
	}
	if *liveC {
		fmt.Println()
		printLiveCheckSummary(os.Stdout)
	}
	if *metrics {
		fmt.Println()
		printMetricsSnapshot(os.Stdout)
	}
}

// printLiveCheckSummary digests the live anomaly watch instruments after the
// experiments: anomalies by class and by isolation level, invariant violation
// rates per tier, and the watcher's own health (shed events, truncations).
func printLiveCheckSummary(w io.Writer) {
	r := obs.Default()
	fmt.Fprintln(w, "--- live anomaly watch ---")
	for _, class := range []string{"G0", "G1a", "G1b", "G1c", "G-single", "G2-item"} {
		name := `feraldb_anomaly_watch_anomalies_total{class="` + class + `"}`
		if v := r.CounterValue(name); v != 0 {
			fmt.Fprintf(w, "%-52s %d\n", name, v)
		}
	}
	for _, lvl := range []string{"READ COMMITTED", "REPEATABLE READ", "SNAPSHOT ISOLATION", "SERIALIZABLE", "SERIALIZABLE 2PL", "other"} {
		name := `feraldb_anomaly_watch_anomalies_by_level_total{level="` + lvl + `"}`
		if v := r.CounterValue(name); v != 0 {
			fmt.Fprintf(w, "%-52s %d\n", name, v)
		}
	}
	for _, name := range []string{
		"feraldb_anomaly_watch_forbidden_total",
		"feraldb_anomaly_watch_sampled_txns_total",
		"feraldb_anomaly_watch_escalations_total",
		"feraldb_anomaly_watch_events_total",
		"feraldb_anomaly_watch_events_shed_total",
		"feraldb_anomaly_watch_window_evictions_total",
		"feraldb_anomaly_watch_window_truncated_total",
	} {
		if v := r.CounterValue(name); v != 0 {
			fmt.Fprintf(w, "%-52s %d\n", name, v)
		}
	}
	for _, tier := range []string{"storage", "appserver"} {
		for _, inv := range []string{"uniqueness", "foreign_key", "association_count"} {
			labels := `{tier="` + tier + `",invariant="` + inv + `"}`
			checks := r.CounterValue("feraldb_invariant_checks_total" + labels)
			if checks == 0 {
				continue
			}
			viol := r.CounterValue("feraldb_invariant_violations_total" + labels)
			fmt.Fprintf(w, "%-52s %d checks, %d violations\n", "invariant "+tier+"/"+inv, checks, viol)
		}
	}
}

// printMetricsSnapshot appends a compact digest of the process-wide metrics
// to the BENCH output, so a run's artifact carries the engine-side story
// (commits, aborts, contention, durability cost) alongside the anomaly
// counts. Zero-valued series are omitted; scrape /metrics on a live feraldbd
// for the full catalog.
func printMetricsSnapshot(w io.Writer) {
	r := obs.Default()
	fmt.Fprintln(w, "--- metrics snapshot ---")
	counters := []string{
		"feraldb_storage_commits_total",
		`feraldb_storage_aborts_total{reason="serialization"}`,
		`feraldb_storage_aborts_total{reason="unique"}`,
		`feraldb_storage_aborts_total{reason="foreign_key"}`,
		`feraldb_storage_aborts_total{reason="deadlock"}`,
		`feraldb_storage_aborts_total{reason="deadline"}`,
		"feraldb_storage_lock_waits_total",
		"feraldb_storage_lock_timeouts_total",
		"feraldb_storage_wal_appends_total",
		"feraldb_storage_wal_fsyncs_total",
		"feraldb_storage_group_commit_frames_total",
		"feraldb_storage_group_commit_txns_total",
		"feraldb_plancache_hits_total",
		"feraldb_plancache_misses_total",
		"feraldb_db_retries_total",
		"feraldb_client_redials_total",
		"feraldb_appserver_requests_total",
	}
	for _, name := range counters {
		if v := r.CounterValue(name); v != 0 {
			fmt.Fprintf(w, "%-52s %d\n", name, v)
		}
	}
	// The batch-size histogram counts transactions per group-commit frame,
	// not durations — render its quantiles as plain integers.
	hists := []struct {
		name     string
		unitless bool
	}{
		{name: "feraldb_statement_seconds"},
		{name: "feraldb_storage_commit_seconds"},
		{name: "feraldb_storage_lock_wait_seconds"},
		{name: "feraldb_storage_wal_fsync_seconds"},
		{name: "feraldb_storage_group_commit_batch_txns", unitless: true},
	}
	for _, h := range hists {
		s, ok := r.HistogramSnapshot(h.name)
		if !ok || s.Count == 0 {
			continue
		}
		if h.unitless {
			fmt.Fprintf(w, "%-52s count=%d p50=%d p95=%d p99=%d\n", h.name, s.Count, int64(s.P50), int64(s.P95), int64(s.P99))
		} else {
			fmt.Fprintf(w, "%-52s count=%d p50=%v p95=%v p99=%v\n", h.name, s.Count, s.P50, s.P95, s.P99)
		}
	}
}

// runOverloadBench renders the overload artifact from internal/overload's
// deterministic virtual-time simulator, with the protection stack off and
// on: a steady-state sweep of goodput vs offered load, then the spike
// timeline.
func runOverloadBench(study *core.Study, w io.Writer) {
	seed := uint64(study.Seed)
	const capacity = 0.8 // the simulator's capacity: 4 slots / 5-tick service

	fmt.Fprintln(w, "goodput vs offered load (virtual-time simulator, steady state)")
	fmt.Fprintf(w, "%-14s %12s %12s %12s\n", "offered/cap", "offered/tick", "feral", "protected")
	for _, f := range []float64{0.5, 0.75, 1.0, 1.5, 2.0, 3.0} {
		rate := f * capacity
		var goodput [2]float64
		for i, protected := range []bool{false, true} {
			m := overload.Run(overload.Config{
				Seed: seed, BaseRate: rate, SpikeFactor: 1, Protected: protected,
			})
			goodput[i] = m.FinalGoodput
		}
		fmt.Fprintf(w, "%-14.2f %12.2f %12.3f %12.3f\n", f, rate, goodput[0], goodput[1])
	}

	fmt.Fprintln(w, "\nspike timeline (goodput per 100-tick bucket; spike ticks 1000-1500)")
	for _, protected := range []bool{false, true} {
		m := overload.Run(overload.Config{Seed: seed, Protected: protected})
		label := "feral"
		if protected {
			label = "protected"
		}
		fmt.Fprintf(w, "%-10s", label)
		for i, g := range m.Buckets {
			if i%4 == 0 {
				fmt.Fprintf(w, " %.2f", g)
			}
		}
		fmt.Fprintf(w, "\n%-10s amplification %.2fx, sheds %d, wasted %d\n",
			"", m.Amplification(), m.Sheds, m.Wasted)
	}
}

// runAll runs the experiments ids in order, rendering each to w with a blank
// line between artifacts.
func runAll(study *core.Study, ids []string, w io.Writer) error {
	for i, id := range ids {
		if i > 0 {
			fmt.Fprintln(w)
		}
		id = strings.TrimSpace(id)
		if err := run(study, id, w); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}

func run(study *core.Study, id string, w io.Writer) error {
	start := time.Now()
	defer func() {
		// Timing goes to stderr so that stdout is the same from run to run.
		fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", id, time.Since(start).Round(time.Millisecond))
	}()
	switch id {
	case "table1":
		study.RenderTable1(w)
	case "table2":
		study.RenderTable2(w)
	case "fig1":
		study.RenderFigure1(w)
	case "safety":
		study.RenderSafety(w)
	case "fig2":
		points, err := study.RunUniquenessStress()
		if err != nil {
			return err
		}
		core.RenderStress(w, points)
	case "fig3":
		points, err := study.RunUniquenessWorkload()
		if err != nil {
			return err
		}
		core.RenderWorkload(w, points)
	case "fig4":
		points, err := study.RunAssociationStress()
		if err != nil {
			return err
		}
		core.RenderAssociationStress(w, points)
	case "fig5":
		points, err := study.RunAssociationWorkload()
		if err != nil {
			return err
		}
		core.RenderAssociationWorkload(w, points)
	case "fig6":
		core.RenderHistory(w, study.RunHistory(10))
	case "fig7":
		core.RenderAuthorship(w, study.RunAuthorship())
	case "ssibug":
		res, err := study.RunSSIBug()
		if err != nil {
			return err
		}
		core.RenderSSIBug(w, res)
	case "isolevels":
		points, err := study.RunIsolationSweep()
		if err != nil {
			return err
		}
		core.RenderIsolationSweep(w, points)
	case "frameworks":
		results, err := study.RunFrameworkSurvey()
		if err != nil {
			return err
		}
		core.RenderFrameworkSurvey(w, results)
	case "overload":
		runOverloadBench(study, w)
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
	return nil
}
