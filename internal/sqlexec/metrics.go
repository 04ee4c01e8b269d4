package sqlexec

import "feralcc/internal/obs"

// Executor-tier instruments: statement latency and the plan-cache outcome
// counters.
var (
	mStatementSeconds = obs.NewHistogram(obs.Default(),
		"feraldb_statement_seconds", "End-to-end statement execution latency")

	mPlanHits = obs.NewCounter(obs.Default(),
		"feraldb_plancache_hits_total", "Plan-cache lookups served from cache")
	mPlanMisses = obs.NewCounter(obs.Default(),
		"feraldb_plancache_misses_total", "Plan-cache lookups that re-prepared (cold or stale)")
)
