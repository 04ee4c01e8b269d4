package experiment

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"feralcc/internal/db"
	"feralcc/internal/faultinject"
	"feralcc/internal/storage"
	"feralcc/internal/wire"
)

// This file is the wall-clock companion to internal/overload's virtual-time
// simulator: an open-loop load generator driving a real wire server through a
// traffic spike, with the full protection stack either armed (server
// admission control, bounded engine queues, client retry budget with
// full-jitter backoff) or disarmed (unbounded queues, the feral retry loop
// the paper's applications ship: retry anything, fixed short sleep, no
// budget, no deadline awareness). Open loop is the point — arrivals do not
// slow down because the server is slow, which is what lets a retry storm
// outlive the spike that started it.

// OverloadConfig parameterizes one overload run.
type OverloadConfig struct {
	// Protected arms the stack: server admission + queue bounds + budgeted
	// jittered client retries. Disarmed, the same topology runs with
	// unbounded queues and feral client retries.
	Protected bool
	// BaseRate is the pre- and post-spike offered load in requests/second.
	BaseRate int
	// SpikeFactor multiplies BaseRate during the spike phase.
	SpikeFactor int
	// Warm, Spike, Cooldown are the three phase durations.
	Warm, Spike, Cooldown time.Duration
	// Deadline is each request's end-to-end budget; completions after it
	// count as failures (the user already left).
	Deadline time.Duration
	// ServiceLatency is injected into every statement server-side
	// (faultinject), setting the lock-hold time and hence the capacity.
	ServiceLatency time.Duration
	// Rows is the number of contended rows (capacity ≈ Rows/ServiceLatency).
	Rows int
	// MaxInFlight, MaxQueue configure the server's admission controller
	// (protected mode only).
	MaxInFlight, MaxQueue int
	// LockQueueBound bounds the engine's per-lock wait queue (protected
	// mode only).
	LockQueueBound int
	// Seed drives row choice and client backoff jitter.
	Seed int64
}

func (c *OverloadConfig) defaults() {
	if c.BaseRate <= 0 {
		c.BaseRate = 150
	}
	if c.SpikeFactor <= 0 {
		c.SpikeFactor = 4
	}
	if c.Warm <= 0 {
		c.Warm = 2 * time.Second
	}
	if c.Spike <= 0 {
		c.Spike = 2 * time.Second
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 3 * time.Second
	}
	if c.Deadline <= 0 {
		c.Deadline = 100 * time.Millisecond
	}
	if c.ServiceLatency <= 0 {
		c.ServiceLatency = 5 * time.Millisecond
	}
	if c.Rows <= 0 {
		// One contended row: every write serializes on its lock, so the
		// injected service latency is the system's capacity (≈200/s at 5ms).
		c.Rows = 1
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 8
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 16
	}
	if c.LockQueueBound == 0 {
		c.LockQueueBound = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// OverloadPhase aggregates one phase's outcomes.
type OverloadPhase struct {
	Name     string
	Duration time.Duration
	// Offered is the number of first arrivals in the phase.
	Offered uint64
	// Completed is requests finished successfully within their deadline.
	Completed uint64
	// Late is requests that finished successfully after their deadline —
	// server work wasted on a caller who already gave up.
	Late uint64
	// Shed is requests whose final outcome was ErrOverloaded.
	Shed uint64
	// Failed is every other final failure (deadline expiry, lock timeout).
	Failed uint64
}

// Goodput is in-deadline completions per second.
func (p OverloadPhase) Goodput() float64 {
	if p.Duration <= 0 {
		return 0
	}
	return float64(p.Completed) / p.Duration.Seconds()
}

// OverloadResult is one run's outcome.
type OverloadResult struct {
	Protected bool
	Phases    [3]OverloadPhase
	// Attempts and Retries count request executions across the run;
	// Amplification = Attempts/(Attempts-Retries).
	Attempts, Retries uint64
}

// Amplification is total attempts per first attempt — the retry storm
// number. A budgeted client keeps it ≤ 1 + ratio; the feral loop does not.
func (r *OverloadResult) Amplification() float64 {
	first := r.Attempts - r.Retries
	if first == 0 {
		return 1
	}
	return float64(r.Attempts) / float64(first)
}

// RunOverload drives one open-loop overload run against a fresh wire server.
func RunOverload(cfg OverloadConfig) (*OverloadResult, error) {
	cfg.defaults()

	opts := storage.Options{LockTimeout: 2 * time.Second}
	if cfg.Protected {
		opts.LockQueueBound = cfg.LockQueueBound
	}
	store := storage.Open(opts)
	defer store.Close()

	srv := wire.NewServer(store, nil)
	inj := faultinject.New(cfg.Seed)
	inj.Arm(faultinject.PointServerExec, faultinject.Rule{
		Kind: faultinject.KindLatency, Rate: 1, Latency: cfg.ServiceLatency,
	})
	srv.SetInjector(inj)
	if cfg.Protected {
		srv.SetAdmission(cfg.MaxInFlight, cfg.MaxQueue)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	go srv.Serve()
	defer srv.Close()
	addr := srv.Addr()

	setup, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	if _, err := setup.Exec("CREATE TABLE kv (id BIGINT PRIMARY KEY, v BIGINT)"); err != nil {
		setup.Close()
		return nil, err
	}
	for i := 0; i < cfg.Rows; i++ {
		if _, err := setup.Exec("INSERT INTO kv (v) VALUES (0)"); err != nil {
			setup.Close()
			return nil, err
		}
	}
	setup.Close()

	res := &OverloadResult{Protected: cfg.Protected}
	res.Phases[0] = OverloadPhase{Name: "warm", Duration: cfg.Warm}
	res.Phases[1] = OverloadPhase{Name: "spike", Duration: cfg.Spike}
	res.Phases[2] = OverloadPhase{Name: "cooldown", Duration: cfg.Cooldown}

	budget := db.NewRetryBudget(1.0, 10)
	var wg sync.WaitGroup
	var reqID uint64

	launch := func(phase int) {
		id := atomic.AddUint64(&reqID, 1)
		atomic.AddUint64(&res.Phases[phase].Offered, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			runOverloadRequest(cfg, addr, budget, id, phase, res)
		}()
	}

	// Open-loop arrival generator: fixed inter-arrival gaps per phase,
	// regardless of how the server is doing.
	for phase, ph := range res.Phases {
		rate := cfg.BaseRate
		if ph.Name == "spike" {
			rate *= cfg.SpikeFactor
		}
		gap := time.Second / time.Duration(rate)
		start := time.Now()
		end := start.Add(ph.Duration)
		// Absolute pacing: sleep to the schedule, not for the gap, so sleep
		// overhead does not erode the offered rate.
		for next := start; next.Before(end); next = next.Add(gap) {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			launch(phase)
		}
	}
	wg.Wait()
	return res, nil
}

// runOverloadRequest executes one request — BEGIN, UPDATE of a seeded row,
// COMMIT — retrying per the configured discipline, and records its final
// outcome into the phase it arrived in.
func runOverloadRequest(cfg OverloadConfig, addr string, budget *db.RetryBudget, id uint64, phase int, res *OverloadResult) {
	ph := &res.Phases[phase]
	h := uint64(cfg.Seed)*0x9e3779b97f4a7c15 + id*0xbf58476d1ce4e5b9
	row := 1 + h%uint64(cfg.Rows)
	start := time.Now()

	policy := db.RetryPolicy{
		MaxRetries: 3,
		BaseDelay:  2 * time.Millisecond,
		MaxDelay:   50 * time.Millisecond,
		Seed:       h | 1,
		Budget:     budget,
	}
	budget.OnAttempt()
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(cfg.Deadline))
	defer cancel()

	var err error
	for attempt := 1; ; attempt++ {
		atomic.AddUint64(&res.Attempts, 1)
		err = overloadAttempt(cfg, addr, row, start)
		if err == nil {
			if time.Since(start) <= cfg.Deadline {
				atomic.AddUint64(&ph.Completed, 1)
			} else {
				atomic.AddUint64(&ph.Late, 1)
			}
			return
		}
		if cfg.Protected {
			// Budgeted discipline: only retryable failures, never with a
			// backoff the deadline cannot absorb, and only while the budget
			// grants.
			backoff, ok := policy.Next(ctx, attempt, err)
			if !ok {
				break
			}
			time.Sleep(backoff)
		} else {
			// The feral loop: any error, fixed short sleep, no budget, no
			// deadline check — each failure is fed straight back into the
			// arrival stream.
			if attempt >= 4 {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		atomic.AddUint64(&res.Retries, 1)
	}
	if errors.Is(err, storage.ErrOverloaded) {
		atomic.AddUint64(&ph.Shed, 1)
	} else {
		atomic.AddUint64(&ph.Failed, 1)
	}
}

// overloadAttempt performs one BEGIN/UPDATE/COMMIT against a fresh
// connection, bounded by the request's remaining deadline budget.
func overloadAttempt(cfg OverloadConfig, addr string, row uint64, start time.Time) error {
	remaining := cfg.Deadline - time.Since(start)
	if remaining < time.Millisecond {
		remaining = time.Millisecond
	}
	client, err := wire.DialTimeout(addr, time.Second)
	if err != nil {
		return err
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), remaining)
	defer cancel()
	if _, err := client.ExecContext(ctx, "BEGIN"); err != nil {
		return err
	}
	if _, err := client.ExecContext(ctx, "UPDATE kv SET v = ? WHERE id = ?",
		storage.Int(int64(row)), storage.Int(int64(row))); err != nil {
		client.Exec("ROLLBACK")
		return err
	}
	if _, err := client.ExecContext(ctx, "COMMIT"); err != nil {
		return err
	}
	return nil
}

// RenderOverload writes one run's phase table.
func RenderOverload(w io.Writer, r *OverloadResult) {
	mode := "unprotected (feral retries, unbounded queues)"
	if r.Protected {
		mode = "protected (admission + queue bounds + retry budget)"
	}
	fmt.Fprintf(w, "%s\n", mode)
	fmt.Fprintf(w, "  %-10s %9s %10s %7s %7s %7s %9s\n",
		"phase", "offered", "completed", "late", "shed", "failed", "goodput/s")
	for _, p := range r.Phases {
		fmt.Fprintf(w, "  %-10s %9d %10d %7d %7d %7d %9.1f\n",
			p.Name, p.Offered, p.Completed, p.Late, p.Shed, p.Failed, p.Goodput())
	}
	fmt.Fprintf(w, "  retry amplification: %.2fx (%d attempts / %d first)\n",
		r.Amplification(), r.Attempts, r.Attempts-r.Retries)
}
