package faultinject_test

// Chaos suite for the embedded stack: the Figure-2 uniqueness experiment run
// with fault injection armed at the connection and engine seams, asserting
// the paper's envelope holds under infrastructure failure. Lives in an
// external test package because it drives the experiment runner, which itself
// imports faultinject.

import (
	"errors"
	"testing"
	"time"

	"feralcc/internal/db"
	"feralcc/internal/db/conntest"
	"feralcc/internal/experiment"
	"feralcc/internal/faultinject"
	"feralcc/internal/storage"
)

// chaosStressConfig is the scaled-down Figure 2 shape shared by the chaos
// cells: small enough for `make chaos` to stay quick, concurrent enough that
// every round races internally.
func chaosStressConfig(faults string, seed int64) experiment.StressConfig {
	spec, err := faultinject.ParseSpec(faults)
	if err != nil {
		panic(err)
	}
	return experiment.StressConfig{
		Workers:     []int{8},
		Concurrency: 16,
		Rounds:      20,
		CellEnv: experiment.CellEnv{
			Isolation: storage.ReadCommitted,
			ThinkTime: 200 * time.Microsecond,
			Faults:    spec,
			FaultSeed: seed,
			Retry:     db.RetryPolicy{MaxRetries: 6, Seed: uint64(seed)},
		},
	}
}

// runChaosCell runs the configured stress experiment and returns duplicates
// per variant for the single worker count.
func runChaosCell(t *testing.T, cfg experiment.StressConfig) map[experiment.UniquenessVariant]int64 {
	t.Helper()
	points, err := experiment.RunUniquenessStress(cfg)
	if err != nil {
		t.Fatalf("stress under faults: %v", err)
	}
	if len(points) != 1 {
		t.Fatalf("expected 1 point, got %d", len(points))
	}
	return points[0].Duplicates
}

// TestChaosUniquenessStressConnDrops runs Figure 2 with 2% of statements
// failing as dropped connections before execution. Retries absorb the
// failures; the unique-index variant must stay anomaly-free.
func TestChaosUniquenessStressConnDrops(t *testing.T) {
	dups := runChaosCell(t, chaosStressConfig("drop=0.02,latency=100us@0.05", 2015))
	if dups[experiment.FeralWithIndex] != 0 {
		t.Fatalf("unique index leaked %d duplicates under dropped connections",
			dups[experiment.FeralWithIndex])
	}
}

// TestChaosUniquenessStressInjectedAborts arms serialization aborts at the
// statement seam and the engine's own commit point: the retry loops must
// converge without double-applying any insert.
func TestChaosUniquenessStressInjectedAborts(t *testing.T) {
	dups := runChaosCell(t, chaosStressConfig("abort=0.02,storage.commit:abort=0.01", 7))
	if dups[experiment.FeralWithIndex] != 0 {
		t.Fatalf("unique index leaked %d duplicates under injected aborts",
			dups[experiment.FeralWithIndex])
	}
}

// TestChaosUniquenessStressDeadlockVictims forces deadlock-victim verdicts at
// the lock-acquisition point, the engine's other retryable failure class.
func TestChaosUniquenessStressDeadlockVictims(t *testing.T) {
	dups := runChaosCell(t, chaosStressConfig("storage.lock:deadlock=0.01", 23))
	if dups[experiment.FeralWithIndex] != 0 {
		t.Fatalf("unique index leaked %d duplicates under deadlock verdicts",
			dups[experiment.FeralWithIndex])
	}
}

// TestChaosFeralValidationStillRaces is the negative control: fault injection
// plus retries must not mask the paper's core result. The validation-only
// variant (no index) still admits duplicates under concurrency — the
// experiment's signal survives the chaos harness.
func TestChaosFeralValidationStillRaces(t *testing.T) {
	cfg := chaosStressConfig("drop=0.01", 2015)
	cfg.Concurrency = 32
	cfg.Rounds = 30
	cfg.ThinkTime = time.Millisecond
	dups := runChaosCell(t, cfg)
	if dups[experiment.NoValidation] == 0 {
		t.Fatal("no-validation variant produced zero duplicates; race window gone")
	}
	if dups[experiment.FeralWithIndex] != 0 {
		t.Fatalf("unique index leaked %d duplicates", dups[experiment.FeralWithIndex])
	}
}

// TestChaosConnSuiteEmbeddedUnderFaults runs the shared db.Conn contract
// against the embedded connection with the statement-seam wrapper armed and
// db.Reliable absorbing the injected failures — the embedded mirror of the
// wire package's chaos conntest runs.
func TestChaosConnSuiteEmbeddedUnderFaults(t *testing.T) {
	conntest.Run(t, func(t *testing.T) db.Conn {
		spec, err := faultinject.ParseSpec("drop=0.05,abort=0.04")
		if err != nil {
			t.Fatal(err)
		}
		inj := spec.Injector(2015)
		d := db.Open(storage.Options{LockTimeout: 2 * time.Second, FaultHook: inj.EngineHook()})
		conn := faultinject.Wrap(d.Connect(), inj)
		return db.Reliable(conn, db.RetryPolicy{MaxRetries: 6, Seed: 2015})
	})
}

// TestChaosRunsAreReplayable pins end-to-end determinism for a
// single-threaded consumer: two stacks built from the same spec and seed
// observe byte-identical fault schedules, so a failing chaos run reproduces
// from its seed alone.
func TestChaosRunsAreReplayable(t *testing.T) {
	run := func() (string, []error) {
		spec, err := faultinject.ParseSpec("drop=0.2,abort=0.15,latency=1us@0.1")
		if err != nil {
			t.Fatal(err)
		}
		inj := spec.Injector(99)
		d := db.Open(storage.Options{})
		raw := d.Connect()
		if _, err := raw.Exec("CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT)"); err != nil {
			t.Fatal(err)
		}
		raw.Close()
		conn := faultinject.Wrap(d.Connect(), inj)
		defer conn.Close()
		var errs []error
		for i := 0; i < 200; i++ {
			_, err := conn.Exec("INSERT INTO kv (key) VALUES ('k')")
			errs = append(errs, err)
		}
		return inj.Summary(), errs
	}
	sum1, errs1 := run()
	sum2, errs2 := run()
	if sum1 != sum2 {
		t.Fatalf("fault summaries diverged:\n  %s\n  %s", sum1, sum2)
	}
	for i := range errs1 {
		if (errs1[i] == nil) != (errs2[i] == nil) {
			t.Fatalf("statement %d: outcome diverged (%v vs %v)", i, errs1[i], errs2[i])
		}
		if errs1[i] != nil && !errors.Is(errs2[i], faultinject.ErrInjected) {
			t.Fatalf("statement %d: second-run error not injected: %v", i, errs2[i])
		}
	}
	if sum1 == "no faults fired" {
		t.Fatal("chaos run fired nothing; rates or seed are wrong")
	}
}
