// Command feraldbd serves the database over the wire protocol, playing the
// PostgreSQL role of the paper's two-machine deployment: run the application
// tier in one process and this server in another.
//
// With -data-dir the store is durable: committed transactions are written to
// a checksummed write-ahead log before they are acknowledged, startup replays
// the log (reporting what it recovered), and -vacuum-interval runs periodic
// Vacuum passes each followed by a snapshot checkpoint so neither version
// chains nor the log grow without bound.
//
// On SIGINT/SIGTERM the server drains gracefully: it stops accepting,
// closes idle connections, and lets in-flight statements finish and respond
// within -drain-timeout before force-closing what remains. Durable servers
// then write a final checkpoint, so the next start replays zero log records.
//
// Usage:
//
//	feraldbd -addr 127.0.0.1:5442 -isolation "READ COMMITTED" \
//	         -data-dir /var/lib/feraldb -sync always -vacuum-interval 5m
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"feralcc/internal/anomalywatch"
	"feralcc/internal/obs"
	"feralcc/internal/storage"
	"feralcc/internal/wire"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:5442", "listen address")
		iso     = flag.String("isolation", "READ COMMITTED", "default isolation level")
		bug     = flag.Bool("phantom-bug", false, "emulate PostgreSQL BUG #11732 under SERIALIZABLE")
		drain   = flag.Duration("drain-timeout", 10*time.Second, "how long a graceful shutdown waits for in-flight statements")
		dataDir = flag.String("data-dir", "", "durable data directory (empty = in-memory)")
		sync    = flag.String("sync", "always", "WAL fsync policy: always, interval, or off")
		vacuum  = flag.Duration("vacuum-interval", 0, "period between Vacuum+checkpoint passes (0 = never)")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /statusz, /anomalies, and /debug/pprof on this address (empty = disabled)")
		slowQuery   = flag.Duration("slow-query", 0, "log statements slower than this, with trace ID and span breakdown (0 = disabled)")

		liveCheck     = flag.Float64("live-check", 0, "live anomaly watcher sample rate in (0,1]; 1 checks every transaction, 0 disables")
		anomalyWindow = flag.Int("anomaly-window", 0, "live checker sliding-window size in closed transactions (0 = default 4096)")

		maxConns    = flag.Int("max-conns", 0, "reject new connections beyond this many with a retryable overloaded response (0 = unlimited)")
		maxInFlight = flag.Int("max-in-flight", 0, "statement admission: concurrent execution slots (0 = unlimited)")
		maxQueue    = flag.Int("max-queue", 0, "statement admission: waiters allowed behind the slots before shedding (with -max-in-flight; negative = shed instead of queueing)")
		lockQueue   = flag.Int("lock-queue-bound", 0, "engine per-lock wait-queue bound: >0 caps waiters, negative sheds instead of waiting (0 = unbounded)")
	)
	flag.Parse()
	level, err := storage.ParseIsolationLevel(*iso)
	if err != nil {
		log.Fatalf("feraldbd: %v", err)
	}
	policy, err := storage.ParseSyncPolicy(*sync)
	if err != nil {
		log.Fatalf("feraldbd: %v", err)
	}
	opts := storage.Options{
		DefaultIsolation: level,
		PhantomBug:       *bug,
		DataDir:          *dataDir,
		SyncPolicy:       policy,
		LockQueueBound:   *lockQueue,
	}
	if *liveCheck > 0 {
		opts.LiveCheck = &anomalywatch.Config{
			SampleRate: *liveCheck,
			WindowTxns: *anomalyWindow,
			// The slow-query-style anomaly log line: one line per detected
			// cycle, carrying every participant's transaction id and the
			// statement trace IDs that link it to spans and slow-query lines.
			OnFinding: func(w anomalywatch.Witness) {
				log.Printf("feraldbd: anomaly class=%s forbidden=%v txs=%s levels=%q traces=%s cycle=%q",
					w.Anomaly, w.Forbidden, anomalywatch.FormatTxs(w.Txs), w.Levels,
					anomalywatch.FormatTraces(w.Traces), w.Cycle)
			},
		}
	}
	store, err := storage.OpenDir(opts)
	if err != nil {
		log.Fatalf("feraldbd: %v", err)
	}
	if *liveCheck > 0 {
		log.Printf("feraldbd: live anomaly watch on: sample-rate=%g window=%d", *liveCheck, *anomalyWindow)
	}
	log.Printf("feraldbd: default isolation %v, phantom bug %v", level, *bug)
	if *dataDir != "" {
		rec := store.Recovery()
		log.Printf("feraldbd: durable at %s (sync=%s): snapshot=%v rows=%d replayed=%d commits=%d ddl=%d torn=%dB corrupt=%v",
			*dataDir, policy, rec.SnapshotLoaded, rec.SnapshotRows, rec.RecordsReplayed,
			rec.CommitsReplayed, rec.DDLReplayed, rec.TornTailBytes, rec.CorruptTail)
	}

	srv := wire.NewServer(store, log.Printf)
	srv.SetSlowQuery(*slowQuery)
	if *maxConns > 0 {
		srv.SetMaxConns(*maxConns)
	}
	if *maxInFlight > 0 {
		srv.SetAdmission(*maxInFlight, *maxQueue)
	}
	if *maxConns > 0 || *maxInFlight > 0 || *lockQueue != 0 {
		log.Printf("feraldbd: overload protection: max-conns=%d max-in-flight=%d max-queue=%d lock-queue-bound=%d",
			*maxConns, *maxInFlight, *maxQueue, *lockQueue)
	}
	if err := srv.Listen(*addr); err != nil {
		log.Fatalf("feraldbd: %v", err)
	}
	log.Printf("feraldbd listening on %s", srv.Addr())

	startTime := time.Now()
	if *metricsAddr != "" {
		statusz := func() any {
			m := map[string]any{
				"addr":           srv.Addr(),
				"isolation":      fmt.Sprint(level),
				"phantom_bug":    *bug,
				"durable":        *dataDir != "",
				"sync":           fmt.Sprint(policy),
				"slow_query":     slowQuery.String(),
				"max_conns":      *maxConns,
				"max_in_flight":  *maxInFlight,
				"max_queue":      *maxQueue,
				"uptime_seconds": time.Since(startTime).Seconds(),
				"live_check":     *liveCheck,
			}
			if w := store.Watcher(); w != nil {
				st := w.Stats()
				m["anomaly_window"] = st.WindowTxns
				m["anomalies_forbidden"] = st.Forbidden
				m["anomaly_events_shed"] = st.Shed
				m["anomaly_window_truncated"] = st.Truncated
			}
			return m
		}
		mux := http.NewServeMux()
		// /anomalies streams the watcher's recent cycle witnesses as JSONL a
		// `feralcheck -` pipe replays offline; 404 without -live-check.
		mux.HandleFunc("/anomalies", func(w http.ResponseWriter, r *http.Request) {
			watch := store.Watcher()
			if watch == nil {
				http.Error(w, "live checking disabled (start with -live-check)", http.StatusNotFound)
				return
			}
			watch.Drain()
			w.Header().Set("Content-Type", "application/jsonl")
			if err := anomalywatch.WriteWitnesses(w, watch.Witnesses()); err != nil {
				log.Printf("feraldbd: /anomalies: %v", err)
			}
		})
		mux.Handle("/", obs.Handler(obs.Default(), statusz))
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatalf("feraldbd: metrics listen: %v", err)
		}
		log.Printf("feraldbd metrics on %s", mln.Addr())
		go func() {
			if err := http.Serve(mln, mux); err != nil {
				log.Printf("feraldbd: metrics server: %v", err)
			}
		}()
	}

	stopVacuum := make(chan struct{})
	if *vacuum > 0 {
		go func() {
			t := time.NewTicker(*vacuum)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					vs := store.Vacuum()
					log.Printf("feraldbd: vacuum pruned %d versions, reclaimed %d rows, %d index entries (horizon %d)",
						vs.VersionsPruned, vs.RowsReclaimed, vs.IndexEntriesPruned, vs.Horizon)
					if cs, err := store.Checkpoint(); err != nil {
						log.Printf("feraldbd: checkpoint failed: %v", err)
					} else if *dataDir != "" {
						log.Printf("feraldbd: checkpoint wrote %d rows (%dB), truncated %dB of log",
							cs.Rows, cs.SnapshotBytes, cs.WALBytesTruncated)
					}
				case <-stopVacuum:
					return
				}
			}
		}()
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	select {
	case err := <-done:
		if err != nil {
			log.Fatalf("feraldbd: %v", err)
		}
	case sig := <-sigs:
		log.Printf("feraldbd: %v received, draining (timeout %v)", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("feraldbd: drain incomplete: %v", err)
		} else {
			log.Printf("feraldbd: drained cleanly")
		}
		<-done
		close(stopVacuum)
		// Every drained statement is already in the log; the final checkpoint
		// just means the next start replays nothing.
		if cs, err := store.Checkpoint(); err != nil {
			log.Printf("feraldbd: final checkpoint failed: %v", err)
		} else if *dataDir != "" {
			log.Printf("feraldbd: final checkpoint wrote %d rows, truncated %dB of log", cs.Rows, cs.WALBytesTruncated)
		}
		if err := store.Close(); err != nil {
			log.Printf("feraldbd: close: %v", err)
		}
	}
}
