// Package appserver reproduces the deployment architecture of Section 2.2:
// a pool of P single-threaded application workers (the Unicorn model), each
// owning one database connection and one ORM session, behind an HTTP front
// end (the Nginx role). Workers share no state, and the front end keeps
// none between requests unless a brownout controller is installed; the
// database is their only rendezvous — which is precisely the condition under
// which the paper's feral validations race.
package appserver

import (
	"context"
	"errors"
	"fmt"

	"feralcc/internal/db"
	"feralcc/internal/obs"
	"feralcc/internal/orm"
)

// Pool instruments: how many workers are mid-request (utilization, against
// feraldb_appserver_pool_size), how many requests are queued waiting for a
// worker (the Unicorn backlog depth), and cumulative checkout outcomes.
var (
	mPoolSize = obs.NewGauge(obs.Default(),
		"feraldb_appserver_pool_size", "Configured worker count")
	mPoolBusy = obs.NewGauge(obs.Default(),
		"feraldb_appserver_busy_workers", "Workers currently executing a request")
	mPoolWaiting = obs.NewGauge(obs.Default(),
		"feraldb_appserver_waiting_requests", "Requests queued for a free worker")
	mPoolRequests = obs.NewCounter(obs.Default(),
		"feraldb_appserver_requests_total", "Requests dispatched to a worker")
	mPoolSaturated = obs.NewCounter(obs.Default(),
		"feraldb_appserver_saturated_total", "Checkouts abandoned before a worker freed up")
)

// ErrPoolSaturated reports that no worker freed up before the request's
// context ended — the app-server analogue of a full Unicorn backlog.
var ErrPoolSaturated = errors.New("appserver: no worker available before deadline")

// Worker is one single-threaded application process: an ORM session over a
// dedicated connection.
type Worker struct {
	ID      int
	Session *orm.Session
}

// Pool is a fixed set of workers checked out one request at a time,
// mirroring a multi-process, single-threaded Unicorn configuration with P
// processes.
type Pool struct {
	workers chan *Worker
	size    int
	conns   []db.Conn
}

// NewPool builds a pool of size workers; each gets its own connection from
// connect and its own session over registry.
func NewPool(size int, registry *orm.Registry, connect func() db.Conn) (*Pool, error) {
	if size <= 0 {
		return nil, fmt.Errorf("appserver: pool size must be positive, got %d", size)
	}
	p := &Pool{workers: make(chan *Worker, size), size: size}
	for i := 0; i < size; i++ {
		conn := connect()
		p.conns = append(p.conns, conn)
		p.workers <- &Worker{ID: i, Session: orm.NewSession(registry, conn)}
	}
	mPoolSize.Set(int64(size))
	return p, nil
}

// Configure applies fn to every worker while the pool is quiescent (e.g. to
// set the sessions' simulated think time).
func (p *Pool) Configure(fn func(*Worker)) {
	ws := make([]*Worker, 0, p.size)
	for i := 0; i < p.size; i++ {
		ws = append(ws, <-p.workers)
	}
	for _, w := range ws {
		fn(w)
		p.workers <- w
	}
}

// Do checks out a worker, runs fn on it, and returns it. Blocks while all
// workers are busy, exactly as a Unicorn master queues requests. The error
// is fn's error.
func (p *Pool) Do(fn func(*Worker) error) error {
	return p.DoContext(nil, fn)
}

// DoContext is Do bounded by ctx at both stages: the wait for a free worker
// gives up with ErrPoolSaturated when ctx ends first, and the checked-out
// worker's session inherits ctx for the duration of fn, so the request's
// deadline rides every statement down to the engine's lock waits.
func (p *Pool) DoContext(ctx context.Context, fn func(*Worker) error) error {
	var w *Worker
	mPoolWaiting.Inc()
	if ctx == nil {
		w = <-p.workers
	} else {
		select {
		case w = <-p.workers:
		case <-ctx.Done():
			mPoolWaiting.Dec()
			mPoolSaturated.Inc()
			return fmt.Errorf("%w: %v", ErrPoolSaturated, ctx.Err())
		}
	}
	mPoolWaiting.Dec()
	mPoolBusy.Inc()
	mPoolRequests.Inc()
	defer func() {
		mPoolBusy.Dec()
		p.workers <- w
	}()
	if ctx != nil {
		w.Session.SetContext(ctx)
		defer w.Session.SetContext(nil)
	}
	return fn(w)
}

// Close releases all connections. Callers must not use the pool afterwards.
func (p *Pool) Close() {
	for i := 0; i < p.size; i++ {
		<-p.workers
	}
	for _, c := range p.conns {
		c.Close()
	}
}
