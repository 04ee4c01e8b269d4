package experiment

import (
	"fmt"

	"feralcc/internal/storage"
)

// IsolationSweepPoint measures both feral anomaly classes at one isolation
// level — the experiment the paper implies but never runs ("unless the
// database is configured for serializable isolation, integrity violations
// may result"): what actually happens to the same workloads as the default
// isolation level is raised?
type IsolationSweepPoint struct {
	Level      storage.IsolationLevel
	Duplicates int64
	Orphans    int64
	// SerializationFailures counts transactions the engine aborted to keep
	// the level's guarantees — the coordination cost paid instead of the
	// anomalies.
	SerializationFailures uint64
}

// IsolationSweepConfig scales the sweep.
type IsolationSweepConfig struct {
	Workers     int
	Rounds      int
	Concurrency int
	// CellEnv is the environment every cell runs in, except Isolation, which
	// the sweep sets per level. With CheckHistory this is the strongest use
	// of the gate, since the sweep visits every level the engine implements.
	CellEnv
}

// DefaultIsolationSweepConfig returns a moderate-contention configuration.
func DefaultIsolationSweepConfig() IsolationSweepConfig {
	return IsolationSweepConfig{Workers: 16, Rounds: 50, Concurrency: 32, CellEnv: defaultCellEnv()}
}

// RunIsolationSweep runs the feral-validation cells of Figure 2 (uniqueness
// stress) and Figure 4 (association stress) at every isolation level the
// engine implements.
func RunIsolationSweep(cfg IsolationSweepConfig) ([]IsolationSweepPoint, error) {
	levels := []storage.IsolationLevel{
		storage.ReadCommitted,
		storage.RepeatableRead,
		storage.SnapshotIsolation,
		storage.Serializable,
		storage.Serializable2PL,
	}
	var out []IsolationSweepPoint
	for _, level := range levels {
		env := cfg.CellEnv
		env.Isolation = level
		dups, stats, err := uniquenessStressCell(StressConfig{
			Concurrency: cfg.Concurrency,
			Rounds:      cfg.Rounds,
			CellEnv:     env,
		}, cfg.Workers, FeralValidation)
		if err != nil {
			return nil, fmt.Errorf("experiment: isolation sweep %v: %w", level, err)
		}
		orphans, err := associationStressCell(AssociationStressConfig{
			Departments:          cfg.Rounds / 2,
			InsertsPerDepartment: cfg.Concurrency / 2,
			CellEnv:              env,
		}, cfg.Workers, FeralAssociation)
		if err != nil {
			return nil, fmt.Errorf("experiment: isolation sweep %v: %w", level, err)
		}
		out = append(out, IsolationSweepPoint{
			Level:                 level,
			Duplicates:            dups,
			Orphans:               orphans,
			SerializationFailures: stats.SerializationFailures,
		})
	}
	return out, nil
}
