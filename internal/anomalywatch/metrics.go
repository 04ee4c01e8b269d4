package anomalywatch

import (
	"feralcc/internal/histcheck"
	"feralcc/internal/obs"
)

// Live-checker instruments, registered once into the default registry. The
// producer side (sampling, Offer) touches only pre-resolved pointers; the
// consumer side updates the window gauges and anomaly counters as it goes.
var (
	mEvents = obs.NewCounter(obs.Default(),
		"feraldb_anomaly_watch_events_total", "History events accepted into the live-checker ring")
	mShed = obs.NewCounter(obs.Default(),
		"feraldb_anomaly_watch_events_shed_total", "History events dropped because the live-checker ring was full")
	mSampled = obs.NewCounter(obs.Default(),
		"feraldb_anomaly_watch_sampled_txns_total", "Transactions selected for live checking")
	mEscalations = obs.NewCounter(obs.Default(),
		"feraldb_anomaly_watch_escalations_total", "Transactions sampled by conflict escalation rather than the base rate")
	mWindowTxns = obs.NewGauge(obs.Default(),
		"feraldb_anomaly_watch_window_txns", "Transactions currently held in the sliding window")
	mEvictions = obs.NewCounter(obs.Default(),
		"feraldb_anomaly_watch_window_evictions_total", "Closed transactions evicted from the sliding window")
	mTruncated = obs.NewCounter(obs.Default(),
		"feraldb_anomaly_watch_window_truncated_total", "Evictions that discarded dependency state a future cycle could have needed")
	mCheckerLag = obs.NewHistogram(obs.Default(),
		"feraldb_anomaly_watch_checker_lag_seconds", "Delay between event enqueue on the commit path and checker processing")
	mRetargets = obs.NewCounter(obs.Default(),
		"feraldb_anomaly_watch_rw_retargets_total", "Edges withdrawn because an install arrived below a version already installed: ww splits and rw re-points (nonzero means transient edges may have produced findings the final graph lacks)")
	mAlmostCycles = obs.NewGauge(obs.Default(),
		"feraldb_anomaly_watch_almost_cycles", "Near-miss wr dependencies (one rw edge short of a cycle) in the current window")

	mAnomaliesByClass = map[histcheck.Anomaly]*obs.Counter{
		histcheck.G0:      newAnomalyCounter("G0"),
		histcheck.G1a:     newAnomalyCounter("G1a"),
		histcheck.G1b:     newAnomalyCounter("G1b"),
		histcheck.G1c:     newAnomalyCounter("G1c"),
		histcheck.GSingle: newAnomalyCounter("G-single"),
		histcheck.G2Item:  newAnomalyCounter("G2-item"),
	}
	mForbidden = obs.NewCounter(obs.Default(),
		"feraldb_anomaly_watch_forbidden_total", "Detected anomalies proscribed by a participant's isolation level")
	mAnomaliesByLevel = map[string]*obs.Counter{
		"READ COMMITTED":     newLevelCounter("READ COMMITTED"),
		"REPEATABLE READ":    newLevelCounter("REPEATABLE READ"),
		"SNAPSHOT ISOLATION": newLevelCounter("SNAPSHOT ISOLATION"),
		"SERIALIZABLE":       newLevelCounter("SERIALIZABLE"),
		"SERIALIZABLE 2PL":   newLevelCounter("SERIALIZABLE 2PL"),
	}
	mAnomaliesOtherLevel = newLevelCounter("other")
)

func newAnomalyCounter(class string) *obs.Counter {
	return obs.NewCounter(obs.Default(),
		`feraldb_anomaly_watch_anomalies_total{class="`+class+`"}`,
		"Anomalies detected by the live checker, by Adya class")
}

func newLevelCounter(level string) *obs.Counter {
	return obs.NewCounter(obs.Default(),
		`feraldb_anomaly_watch_anomalies_by_level_total{level="`+level+`"}`,
		"Anomalies detected by the live checker, by participant isolation level (one increment per distinct level per finding)")
}

// countFinding updates the per-class, per-level, and forbidden counters for
// one newly detected finding.
func countFinding(f histcheck.Finding) {
	if c := mAnomaliesByClass[f.Anomaly]; c != nil {
		c.Inc()
	}
	if f.Forbidden {
		mForbidden.Inc()
	}
	seen := map[string]bool{}
	for _, lvl := range f.Levels {
		if lvl == "" || seen[lvl] {
			continue
		}
		seen[lvl] = true
		if c := mAnomaliesByLevel[lvl]; c != nil {
			c.Inc()
		} else {
			mAnomaliesOtherLevel.Inc()
		}
	}
}
