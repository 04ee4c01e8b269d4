package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"feralcc/internal/anomalywatch"
	"feralcc/internal/appserver"
	"feralcc/internal/db"
	"feralcc/internal/faultinject"
	"feralcc/internal/histcheck"
	"feralcc/internal/orm"
	"feralcc/internal/storage"
)

// This file is the one experiment cell. Figures 2–5, the isolation sweep and
// the SSI-bug run are all the same thing — a fresh database, one application's
// models migrated onto it, a pool of workers driven by some request generator,
// and a census of the anomalies left behind — and differ only in their variant
// table and their generator. Everything else is here, once: runCell is
// open → drive → finish.

// CellEnv is the environment a cell runs in: every setting that is about how
// the stack is assembled and checked rather than about which figure is being
// drawn. The five experiment configs embed it, so each field means the same
// thing for every Figure 2–5, isolevels and ssibug cell.
type CellEnv struct {
	// Isolation is the database default isolation level (Read Committed, the
	// zero value, in the paper's PostgreSQL deployment). The isolation sweep
	// and the SSI-bug run set it per cell.
	Isolation storage.IsolationLevel
	// PhantomBug enables the PostgreSQL bug #11732 reproduction when
	// Isolation is Serializable.
	PhantomBug bool
	// ThinkTime is the simulated application-tier processing separating a
	// validation from its write (see orm.Session.ThinkTime). Zero collapses
	// the race window to nanoseconds and hides the anomalies the paper
	// measured against a real Rails stack.
	ThinkTime time.Duration
	// Faults, when non-empty, interposes the fault-injection layer in front
	// of every worker connection (and arms the storage engine's commit/lock
	// points for rules that name them), so the cell runs under infrastructure
	// failure (feralbench -faults). The injection draws derive from FaultSeed.
	Faults    faultinject.Spec
	FaultSeed int64
	// Retry is the per-worker automatic retry policy (connection-level
	// replay via db.Reliable when Faults is armed, plus ORM transaction
	// retry). Zero disables retries — the bare configuration the paper
	// measured.
	Retry db.RetryPolicy
	// DataDir, when non-empty, runs every cell against a durable store in its
	// own subdirectory (named after the cell, isolation level included, and
	// emptied first), and the census is taken only after closing and
	// reopening the database — so the anomalies reported are ones that
	// survive a server restart, as the paper's PostgreSQL ones did
	// (feralbench -data-dir).
	DataDir string
	// Sync selects the WAL sync policy for durable cells ("always",
	// "interval", "off"; feralbench -sync). Empty keeps the historical
	// default, SyncOff: the model is process death, and the cell's own
	// close/reopen cycle is the crash. Ignored without DataDir.
	Sync string
	// CheckHistory records every cell's operation history and, after the
	// workload quiesces, runs the offline isolation checker over it
	// (feralbench -check-history). A history containing an anomaly the
	// cell's isolation level proscribes fails the cell; anomalies the level
	// admits — the ones the paper measures — pass.
	CheckHistory bool
	// LiveCheck attaches the streaming anomaly watcher
	// (internal/anomalywatch) to every cell at full sampling (feralbench
	// -live-check). With CheckHistory also set, each cell additionally gates
	// on live/offline parity: on a clean window the two checkers must report
	// the same anomaly classes.
	LiveCheck bool

	// lockTimeout overrides cellLockTimeout; in-package tests lower it so the
	// SERIALIZABLE 2PL cells do not sit out two-second waits.
	lockTimeout time.Duration
}

// cellLockTimeout bounds every cell's lock waits — the deadlock resolver of
// the SERIALIZABLE 2PL cells.
const cellLockTimeout = 2 * time.Second

// defaultCellEnv is the paper's environment: Read Committed, one millisecond
// of application think time, in memory, nothing injected, nothing checked.
func defaultCellEnv() CellEnv {
	return CellEnv{Isolation: storage.ReadCommitted, ThinkTime: time.Millisecond}
}

// cell is one open experiment cell: a fresh database and the worker pool in
// front of it.
type cell struct {
	label        string
	checkHistory bool            // env.CheckHistory: finish runs the two gates
	restart      storage.Options // what finish reopens a durable store with; no DataDir in memory
	d            *db.DB
	pool         *appserver.Pool
}

// runCell runs one cell: open a fresh stack, let drive issue the workload
// through the pool, and finish with census. The returned count is census's;
// the stats are the engine's conflict counters at the end of the workload.
func runCell(env CellEnv, label string, models func() (*orm.Registry, error), workers int, remedy string,
	drive func(*appserver.Pool) error, census func(db.Conn) (int64, error)) (int64, storage.Stats, error) {
	c, err := openCell(env, label, models, workers, remedy)
	if err != nil {
		return 0, storage.Stats{}, err
	}
	if err := drive(c.pool); err != nil {
		c.pool.Close()
		c.d.Close()
		return 0, storage.Stats{}, err
	}
	return c.finish(census)
}

// openCell assembles a fresh database per env, migrates the models, applies
// the variant's remedy DDL script (the in-database constraint a figure
// compares the feral mechanism against; empty for none) and builds a pool of
// workers over it. label names the cell in witness files and gate errors and,
// sanitized, is its durable directory under env.DataDir.
func openCell(env CellEnv, label string, models func() (*orm.Registry, error), workers int, remedy string) (_ *cell, err error) {
	if env.PhantomBug {
		// A PhantomBug cell shares its level's name with the correct cell.
		label += "-phantombug"
	}
	opts := storage.Options{
		DefaultIsolation: env.Isolation,
		PhantomBug:       env.PhantomBug,
		LockTimeout:      cellLockTimeout,
		RecordHistory:    env.CheckHistory,
	}
	if env.lockTimeout > 0 {
		opts.LockTimeout = env.lockTimeout
	}
	if env.LiveCheck {
		// Every transaction sampled, so the live verdict is comparable with
		// the offline one on the same run.
		opts.LiveCheck = &anomalywatch.Config{SampleRate: 1}
	}
	var inj *faultinject.Injector
	if !env.Faults.Empty() {
		inj = env.Faults.Injector(env.FaultSeed)
		// Rules naming the engine's commit/lock points fire through the
		// storage-side hook; connection-level rules fire through Wrap below.
		opts.FaultHook = inj.EngineHook()
	}
	if env.DataDir != "" {
		opts.DataDir = filepath.Join(env.DataDir, sanitizeLabel(label))
		// Empty keeps SyncOff: the experiments model process death, not power
		// loss, and finish's close/reopen cycle is the crash.
		opts.SyncPolicy = storage.SyncOff
		if env.Sync != "" {
			if opts.SyncPolicy, err = storage.ParseSyncPolicy(env.Sync); err != nil {
				return nil, err
			}
		}
		// A cell starts from nothing: a store an earlier run (or a cell of
		// another experiment with the same label) left here is not its data.
		if err := os.RemoveAll(opts.DataDir); err != nil {
			return nil, err
		}
	}
	registry, err := models()
	if err != nil {
		return nil, err
	}
	d, err := db.OpenDir(opts)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			d.Close()
		}
	}()
	if err := appserver.MigrateOn(d, registry); err != nil {
		return nil, err
	}
	if err := d.ExecScript(remedy); err != nil {
		return nil, err
	}
	connect := func() db.Conn { return d.Connect() }
	if inj != nil {
		connect = func() db.Conn {
			conn := faultinject.Wrap(d.Connect(), inj)
			if env.Retry.Enabled() {
				conn = db.Reliable(conn, env.Retry)
			}
			return conn
		}
	}
	pool, err := appserver.NewPool(workers, registry, connect)
	if err != nil {
		return nil, err
	}
	pool.Configure(func(w *appserver.Worker) {
		w.Session.ThinkTime = env.ThinkTime
		w.Session.Retry = env.Retry
	})
	return &cell{label: label, checkHistory: env.CheckHistory, restart: storage.Options{DataDir: opts.DataDir}, d: d, pool: pool}, nil
}

// finish quiesces the cell and counts what the workload left behind. It
// closes the pool; under CheckHistory runs the offline checker once and feeds
// both the isolation gate and the live-parity gate from that report; captures
// the engine's conflict counters; restarts a durable store, so the census is
// of the recovered database; runs census on a fresh connection; and closes the
// database — on every path, errors included.
func (c *cell) finish(census func(db.Conn) (int64, error)) (int64, storage.Stats, error) {
	c.pool.Close()
	d := c.d // nil while no handle is open, so the deferred Close never repeats one
	defer func() {
		if d != nil {
			d.Close()
		}
	}()
	if c.checkHistory {
		events := d.History()
		rep := histcheck.Check(events)
		if err := verifyHistory(c.label, events, rep); err != nil {
			return 0, storage.Stats{}, err
		}
		if err := verifyLiveParity(d.Watcher(), c.label, rep); err != nil {
			return 0, storage.Stats{}, err
		}
	}
	stats := d.Store().Stats()
	if c.restart.DataDir != "" {
		// Restart the database: every anomaly still counted after recovery is
		// a durable one, exactly what the paper measured.
		err := d.Close()
		d = nil
		if err != nil {
			return 0, stats, err
		}
		if d, err = db.OpenDir(c.restart); err != nil {
			return 0, stats, fmt.Errorf("experiment: %s: reopen after restart: %w", c.label, err)
		}
	}
	conn := d.Connect()
	defer conn.Close()
	n, err := census(conn)
	return n, stats, err
}
