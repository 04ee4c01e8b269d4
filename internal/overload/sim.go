// Package overload is a deterministic discrete-time simulator of the stack
// under offered load beyond capacity. It exists to pin the two behaviors the
// overload work claims — that the unprotected stack collapses metastably (a
// load spike ends but goodput does not recover, because timed-out clients'
// retries keep the server saturated with work nobody is waiting for), and
// that the protection stack (bounded admission queues via wire.ShedVerdict,
// full-jitter backoff via db.RetryPolicy, and a retry budget) keeps goodput up
// during the spike and restores it promptly after — as exact, seeded test
// assertions that run in milliseconds of wall time.
//
// The simulator advances virtual time in 1ms ticks and reuses the real
// policy code: admission decisions go through wire.ShedVerdict, client
// backoff through db.RetryPolicy.BackoffFor; retries are metered by this
// package's own retryBudget. Only the server (fixed service time, fixed
// concurrency) and the arrival process are modeled. Chaos tests exercise the
// admission and backoff mechanisms against the real stack; this package is
// where the shape of the curve is pinned numerically.
package overload

import (
	"time"

	"feralcc/internal/db"
	"feralcc/internal/storage"
	"feralcc/internal/wire"
)

// tick is the simulator's time quantum, the unit every tick count below is
// denominated in.
const tick = time.Millisecond

// The modeled server, clients and run. No caller varies these; the tests
// and feralbench's sweep move only the offered load and the mode.
const (
	capacity          = 4    // the server's concurrent service slots
	serviceTicks      = 5    // fixed per-request service time
	deadlineTicks     = 100  // each attempt's client-side budget
	spikeStart        = 1000 // the spike's first tick
	spikeEnd          = 1500 // the tick the spike ends
	durationTicks     = 4000 // the run length
	queueBound        = 8    // the admission queue bound when protected
	retryRatio        = 1.0  // retry-budget tokens per first attempt when protected: ≤2× amplification
	retryBurst        = 10   // the retry budget's bucket cap, enough to ride out a brief blip
	maxAttempts       = 4    // a protected request's attempt cap
	feralBackoffTicks = 10   // the unprotected client's fixed retry delay, the paper's tight ad-hoc loop
	bucketTicks       = 100  // the goodput reporting granularity
	cooldownTicks     = 300  // the grace after the spike before the recovery window begins
)

// Config describes one simulated run. Zero fields take the defaults noted on
// each; the zero Config is a complete, sensible experiment.
type Config struct {
	// Seed drives every random draw (backoff jitter), making runs
	// reproducible bit-for-bit.
	Seed uint64
	// BaseRate is the baseline offered load in first attempts per tick
	// (default 0.5 — about 62% utilization of the server's capacity).
	BaseRate float64
	// SpikeFactor multiplies the offered load during the spike (default 4).
	SpikeFactor float64
	// Protected enables the protection stack: bounded admission queue,
	// deadline-doomed shedding, budgeted full-jitter retries. Off, the
	// server queues everything and clients retry ferally: a fixed short
	// backoff, no cap, no budget.
	Protected bool
}

func (c *Config) defaults() {
	if c.BaseRate <= 0 {
		c.BaseRate = 0.5
	}
	if c.SpikeFactor <= 0 {
		c.SpikeFactor = 4
	}
}

// Metrics is the outcome of one run. Goodput figures are requests completed
// within their deadline, per tick, averaged over the named window.
type Metrics struct {
	// Buckets is goodput per reporting bucket across the whole run.
	Buckets []float64
	// PeakGoodput is the pre-spike average (the healthy baseline), skipping
	// the first bucket of warmup.
	PeakGoodput float64
	// SpikeGoodput is the average while the spike is offered.
	SpikeGoodput float64
	// FinalGoodput is the average from spike end + cooldown to run end —
	// the recovery (or non-recovery) figure.
	FinalGoodput float64

	FirstAttempts uint64 // logical requests offered
	Retries       uint64 // re-attempts issued by clients
	Completed     uint64 // served within deadline (goodput)
	Wasted        uint64 // served after the client had given up
	Sheds         uint64 // refused by admission control
	Timeouts      uint64 // client deadlines that expired waiting
	GaveUp        uint64 // request chains abandoned (attempt cap or budget)
}

// Amplification is total attempts divided by first attempts.
func (m Metrics) Amplification() float64 {
	if m.FirstAttempts == 0 {
		return 1
	}
	return float64(m.FirstAttempts+m.Retries) / float64(m.FirstAttempts)
}

// request states.
const (
	stQueued = iota
	stServing
	stDone
)

type simReq struct {
	origin   int // stable id of the logical request chain (jitter seed input)
	attempt  int // 1-based
	deadline int // tick the client gives up
	state    int
	// clientGone marks an attempt whose client timed out; the unprotected
	// server serves it anyway and the service is wasted.
	clientGone bool
}

type slot struct {
	r      *simReq
	finish int
}

// Run executes one simulation and returns its metrics. Same Config (and
// Seed) → identical Metrics, on any machine.
func Run(cfg Config) Metrics {
	cfg.defaults()
	var (
		m      Metrics
		slots  = make([]slot, capacity)
		queue  []*simReq
		live   int // queued, non-abandoned requests
		acc    float64
		origin int

		// retryAt and expireAt index pending client events by tick.
		retryAt  = make(map[int][]*simReq)
		expireAt = make(map[int][]*simReq)
	)
	budget := newRetryBudget(retryRatio, retryBurst)
	policy := db.RetryPolicy{
		MaxRetries: maxAttempts - 1,
		BaseDelay:  time.Duration(serviceTicks) * tick,
		MaxDelay:   time.Duration(deadlineTicks) * tick,
	}
	nbuckets := (durationTicks + bucketTicks - 1) / bucketTicks
	goodputByBucket := make([]float64, nbuckets)

	// ticksFor quantizes a real backoff duration onto the grid, rounding up.
	ticksFor := func(d time.Duration) int {
		n := int((d + tick - 1) / tick)
		if n < 1 {
			n = 1
		}
		return n
	}

	// estWait mirrors wire's admission wait estimate with the simulator's
	// perfect knowledge of the service time.
	estWait := func(position int) time.Duration {
		return time.Duration(serviceTicks*position/capacity+1) * tick
	}

	// scheduleRetry is the client's reaction to a failed attempt. Protected
	// clients follow the real taxonomy: only sheds (retryable-after-backoff)
	// are retried, metered by the budget and capped by MaxAttempts, sleeping
	// the real full-jitter backoff floored by the shed's retry-after hint.
	// Unprotected clients are the paper's feral loop: any failure retries
	// after a fixed short delay, forever.
	scheduleRetry := func(t int, r *simReq, err error) {
		next := r.attempt + 1
		var wait int
		if cfg.Protected {
			if next > maxAttempts {
				m.GaveUp++
				return
			}
			if !budget.allow() {
				m.GaveUp++
				return
			}
			p := policy
			p.Seed = cfg.Seed ^ (uint64(r.origin) * 0x9e3779b97f4a7c15)
			wait = ticksFor(p.BackoffFor(next, err))
		} else {
			wait = feralBackoffTicks
		}
		m.Retries++
		retryAt[t+wait] = append(retryAt[t+wait], &simReq{origin: r.origin, attempt: next})
	}

	// admit places one arriving attempt: straight into a free slot, into the
	// queue, or — protected only — shed through the real verdict function.
	admit := func(t int, r *simReq) {
		r.deadline = t + deadlineTicks
		for i := range slots {
			if slots[i].r == nil {
				r.state = stServing
				slots[i] = slot{r: r, finish: t + serviceTicks}
				expireAt[r.deadline] = append(expireAt[r.deadline], r)
				return
			}
		}
		if cfg.Protected {
			est := estWait(live + 1)
			remaining := time.Duration(deadlineTicks) * tick
			if shed, reason := wire.ShedVerdict(live, queueBound, est, remaining); shed {
				m.Sheds++
				scheduleRetry(t, r, &storage.OverloadError{Reason: "admission: " + reason, RetryAfter: est})
				return
			}
		}
		r.state = stQueued
		queue = append(queue, r)
		live++
		expireAt[r.deadline] = append(expireAt[r.deadline], r)
	}

	for t := 0; t < durationTicks; t++ {
		// 1. Completions free slots; late completions are wasted work.
		for i := range slots {
			if slots[i].r != nil && slots[i].finish <= t {
				r := slots[i].r
				r.state = stDone
				if r.clientGone || t > r.deadline {
					m.Wasted++
				} else {
					m.Completed++
					goodputByBucket[t/bucketTicks]++
				}
				slots[i].r = nil
			}
		}

		// 2. Client deadlines expire: the client stops waiting and reacts.
		// A protected server's admission timer removes the request from its
		// queue; an unprotected server will still serve it (and waste the
		// service). Requests already in service are past saving either way.
		for _, r := range expireAt[t] {
			if r.state == stDone || r.clientGone {
				continue
			}
			r.clientGone = true
			m.Timeouts++
			if r.state == stQueued && cfg.Protected {
				r.state = stDone // leaves the queue; skipped at dequeue
				live--
			}
			if !cfg.Protected {
				// Feral loop: a timeout is just another error to retry.
				scheduleRetry(t, r, storage.ErrStmtDeadline)
			} else {
				// The budget is spent; deadline expiry is transient but not
				// retryable, so the protected chain ends here.
				m.GaveUp++
			}
		}
		delete(expireAt, t)

		// 3. Pull queued work into freed slots (FIFO, skipping removals).
		for i := range slots {
			if slots[i].r != nil {
				continue
			}
			for len(queue) > 0 {
				r := queue[0]
				queue = queue[1:]
				if r.state != stQueued {
					continue // removed by the admission timer
				}
				live--
				r.state = stServing
				slots[i] = slot{r: r, finish: t + serviceTicks}
				break
			}
		}

		// 4. Due retries re-arrive, then fresh first attempts.
		for _, r := range retryAt[t] {
			admit(t, r)
		}
		delete(retryAt, t)
		rate := cfg.BaseRate
		if t >= spikeStart && t < spikeEnd {
			rate *= cfg.SpikeFactor
		}
		acc += rate
		for acc >= 1 {
			acc--
			origin++
			m.FirstAttempts++
			if cfg.Protected {
				budget.onAttempt()
			}
			admit(t, &simReq{origin: origin, attempt: 1})
		}
	}

	// Normalize buckets to per-tick goodput and compute the windows.
	for i := range goodputByBucket {
		goodputByBucket[i] /= float64(bucketTicks)
	}
	m.Buckets = goodputByBucket
	window := func(from, to int) float64 {
		lo, hi := from/bucketTicks, to/bucketTicks
		if hi > len(goodputByBucket) {
			hi = len(goodputByBucket)
		}
		if lo >= hi {
			return 0
		}
		var sum float64
		for _, v := range goodputByBucket[lo:hi] {
			sum += v
		}
		return sum / float64(hi-lo)
	}
	m.PeakGoodput = window(bucketTicks, spikeStart)
	m.SpikeGoodput = window(spikeStart, spikeEnd)
	m.FinalGoodput = window(spikeEnd+cooldownTicks, durationTicks)
	return m
}
