package experiment

import "feralcc/internal/storage"

// SSIBugResult reproduces the paper's footnote 8 (PostgreSQL BUG #11732):
// the uniqueness stress workload run under nominally SERIALIZABLE isolation,
// once against a correct implementation and once with the phantom-
// certification bug enabled.
type SSIBugResult struct {
	DuplicatesCorrect int64
	DuplicatesBuggy   int64
	// ReadCommitted is the same workload at the weak default, for the
	// footnote's comparison ("the number of anomalies is reduced compared to
	// the number under Read Committed ... but we still detected duplicate
	// records").
	DuplicatesReadCommitted int64
}

// RunSSIBug measures duplicate admission for the feral validator — Figure 2's
// with-validation cell — under Serializable (correct), Serializable with the
// phantom bug, and Read Committed. env is the cells' environment; its
// Isolation and PhantomBug are set per cell. The PhantomBug cell deliberately
// breaks the level it claims, so under env.CheckHistory its history may fail
// the gate — that is the bug being caught, not a harness error.
func RunSSIBug(env CellEnv, workers, rounds, concurrency int) (SSIBugResult, error) {
	run := func(level storage.IsolationLevel, bug bool) (int64, error) {
		env.Isolation, env.PhantomBug = level, bug
		dups, _, err := uniquenessStressCell(StressConfig{
			Concurrency: concurrency,
			Rounds:      rounds,
			CellEnv:     env,
		}, workers, FeralValidation)
		return dups, err
	}
	var res SSIBugResult
	var err error
	if res.DuplicatesCorrect, err = run(storage.Serializable, false); err != nil {
		return res, err
	}
	if res.DuplicatesBuggy, err = run(storage.Serializable, true); err != nil {
		return res, err
	}
	if res.DuplicatesReadCommitted, err = run(storage.ReadCommitted, false); err != nil {
		return res, err
	}
	return res, nil
}
