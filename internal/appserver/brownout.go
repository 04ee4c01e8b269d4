package appserver

import (
	"sync"
	"time"

	"feralcc/internal/obs"
)

// Brownout instruments.
var (
	mBrownoutDegraded = obs.NewGauge(obs.Default(),
		"feraldb_app_brownout_degraded", "1 while the app tier is in brownout (serving degraded reads)")
	mBrownoutEngagements = obs.NewCounter(obs.Default(),
		"feraldb_app_brownout_engagements_total", "Times the brownout controller entered degraded mode")
	mDegradedReads = obs.NewCounter(obs.Default(),
		"feraldb_app_degraded_reads_total", "Reads answered from the stale cache instead of the database")
)

// BrownoutState is the controller's mode.
type BrownoutState int

const (
	// BrownoutNormal serves everything through the database.
	BrownoutNormal BrownoutState = iota
	// BrownoutDegraded sheds read traffic to the stale cache, keeping the
	// database's remaining capacity for writes.
	BrownoutDegraded
)

// Brownout is the app tier's overload response: it watches the fraction of
// requests the layers below are shedding (pool saturation, database
// overload) over a sliding window, and when that fraction crosses the engage
// threshold it flips the server into degraded mode — reads come from a
// last-known-value cache instead of the database. The trade is explicit
// staleness for goodput: a browsed-but-stale page beats a 503, and every
// read kept off the database is capacity returned to the writes that cannot
// be degraded.
//
// Recovery is deliberately asymmetric: the controller exits only after a
// full cooldown in degraded mode with the shed rate back under the recover
// threshold, so it cannot flap when the load is hovering at the edge (the
// flap itself — rejoining, collapsing, retreating — is a mini metastable
// failure).
type Brownout struct {
	mu        sync.Mutex
	state     BrownoutState
	window    *obs.RateWindow
	engage    float64 // shed rate that enters degraded mode
	recovery  float64 // shed rate required to leave it
	minTotal  uint64  // samples required before the rate is believed
	cooldown  time.Duration
	now       func() time.Time
	enteredAt time.Time
	// cache holds the last value written or read for each model/key, the
	// degraded-mode answer. It lives here so that a server without a
	// controller keeps no state between requests.
	cache sync.Map
}

// NewBrownout builds a controller. engage is the windowed shed rate that
// trips degraded mode (e.g. 0.25), recovery the rate that must hold before
// leaving it (e.g. 0.05), cooldown the minimum stay in degraded mode. clock
// may be nil for wall time (tests inject a fake).
func NewBrownout(engage, recovery float64, cooldown time.Duration, clock func() time.Time) *Brownout {
	if clock == nil {
		clock = time.Now
	}
	if engage <= 0 {
		engage = 0.25
	}
	if recovery <= 0 || recovery >= engage {
		recovery = engage / 5
	}
	return &Brownout{
		window:   obs.NewRateWindow(2*time.Second, 10, clock),
		engage:   engage,
		recovery: recovery,
		minTotal: 20,
		cooldown: cooldown,
		now:      clock,
	}
}

// Observe records one request outcome (shed = the layers below refused it
// for load reasons) and re-evaluates the state machine.
func (b *Brownout) Observe(shed bool) {
	b.window.Observe(shed)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.evaluate()
}

// State reports the current mode, re-evaluating first so a quiet period
// (no requests observed) still lets the cooldown expire.
func (b *Brownout) State() BrownoutState {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.evaluate()
	return b.state
}

// evaluate runs the transition rules. Called with mu held.
func (b *Brownout) evaluate() {
	rate, total := b.window.Rate()
	switch b.state {
	case BrownoutNormal:
		if total >= b.minTotal && rate >= b.engage {
			b.state = BrownoutDegraded
			b.enteredAt = b.now()
			mBrownoutDegraded.Set(1)
			mBrownoutEngagements.Inc()
		}
	case BrownoutDegraded:
		if b.now().Sub(b.enteredAt) >= b.cooldown && rate <= b.recovery {
			b.state = BrownoutNormal
			mBrownoutDegraded.Set(0)
		}
	}
}
