// Package experiment implements one runner per table and figure of the
// paper's evaluation: the uniqueness and association anomaly measurements of
// Section 5 (Figures 2–5), the corpus census of Section 3 (Table 2,
// Figures 1, 6, 7), the I-confluence classification of Section 4 (Table 1
// and the safety percentages), the PostgreSQL SSI bug reproduction of
// footnote 8, and the cross-framework survey of Section 6.
package experiment

import (
	"fmt"
	"sync"

	"feralcc/internal/appserver"
	"feralcc/internal/db"
	"feralcc/internal/storage"
	"feralcc/internal/workload"
)

// UniquenessVariant selects the integrity mechanism under test.
type UniquenessVariant uint8

const (
	// NoValidation inserts blindly (SimpleKeyValue).
	NoValidation UniquenessVariant = iota
	// FeralValidation uses the application-level uniqueness validation
	// (ValidatedKeyValue) — the paper's default Rails behavior.
	FeralValidation
	// FeralWithIndex adds the in-database unique index migration on top of
	// the feral validation — the paper's remedy (footnote 10).
	FeralWithIndex
)

// uniquenessVariants is the variant table of Figures 2 and 3: the variant's
// name in the figures' legends, the model the requests create, the table the
// duplicate census reads, and the remedy DDL applied after migration.
var uniquenessVariants = [...]struct {
	name         string
	model, table string
	remedy       string
}{
	NoValidation:    {name: "without validation", model: "SimpleKeyValue", table: "simple_key_values"},
	FeralValidation: {name: "with validation", model: "ValidatedKeyValue", table: "validated_key_values"},
	FeralWithIndex: {name: "with validation + unique index", model: "ValidatedKeyValue", table: "validated_key_values",
		remedy: "CREATE UNIQUE INDEX ON validated_key_values (key)"},
}

func (v UniquenessVariant) String() string {
	if int(v) < len(uniquenessVariants) {
		return uniquenessVariants[v].name
	}
	return fmt.Sprintf("UniquenessVariant(%d)", uint8(v))
}

// uniquenessCell runs one Figure 2/3 cell: drive issues creations of the
// variant's model through the pool, and the census is the appendix C.2
// duplicate count.
func uniquenessCell(env CellEnv, label string, workers int, variant UniquenessVariant,
	drive func(pool *appserver.Pool, model string) error) (int64, storage.Stats, error) {
	v := uniquenessVariants[variant]
	return runCell(env, label, appserver.UniquenessModels, workers, v.remedy,
		func(pool *appserver.Pool) error { return drive(pool, v.model) },
		func(conn db.Conn) (int64, error) { return appserver.CountDuplicates(conn, v.table) })
}

// createKey issues one key-value creation request. Validation failures and
// unique violations are the point of the experiments, not errors of them.
func createKey(pool *appserver.Pool, model, key string) {
	_ = pool.Do(func(w *appserver.Worker) error {
		_, err := w.Session.Create(model, map[string]storage.Value{
			"key":   storage.Str(key),
			"value": storage.Str("v"),
		})
		return err
	})
}

// StressConfig parameterizes the Figure 2 uniqueness stress test.
type StressConfig struct {
	// Workers is the x-axis: Unicorn worker counts (paper: 1..64).
	Workers []int
	// Concurrency is the number of simultaneous requests per round (64).
	Concurrency int
	// Rounds is the number of rounds, one fresh key each (100).
	Rounds int
	// CellEnv is the environment every cell runs in.
	CellEnv
}

// DefaultStressConfig returns the paper's parameters.
func DefaultStressConfig() StressConfig {
	return StressConfig{
		Workers:     []int{1, 2, 4, 8, 16, 32, 64},
		Concurrency: 64,
		Rounds:      100,
		CellEnv:     defaultCellEnv(),
	}
}

// StressPoint is one Figure 2 data point.
type StressPoint struct {
	Workers    int
	Duplicates map[UniquenessVariant]int64
}

// RunUniquenessStress reproduces Figure 2: for each worker count, issue
// Rounds sets of Concurrency simultaneous creations of the same key and
// count surviving duplicate records per variant.
func RunUniquenessStress(cfg StressConfig) ([]StressPoint, error) {
	var out []StressPoint
	for _, p := range cfg.Workers {
		point := StressPoint{Workers: p, Duplicates: map[UniquenessVariant]int64{}}
		for _, variant := range []UniquenessVariant{NoValidation, FeralValidation, FeralWithIndex} {
			dups, _, err := uniquenessStressCell(cfg, p, variant)
			if err != nil {
				return nil, fmt.Errorf("experiment: stress P=%d %v: %w", p, variant, err)
			}
			point.Duplicates[variant] = dups
		}
		out = append(out, point)
	}
	return out, nil
}

// uniquenessStressCell runs one (worker count, variant) Figure 2 cell: Rounds
// sets of Concurrency simultaneous creations, one fresh key per round,
// blocking between rounds so every round races internally (Appendix C.2). The
// isolation sweep and the SSI-bug run call it too, for the conflict counters.
func uniquenessStressCell(cfg StressConfig, workers int, variant UniquenessVariant) (int64, storage.Stats, error) {
	label := fmt.Sprintf("stress-p%d-v%d-%s", workers, variant, cfg.Isolation)
	return uniquenessCell(cfg.CellEnv, label, workers, variant, func(pool *appserver.Pool, model string) error {
		for round := 0; round < cfg.Rounds; round++ {
			key := fmt.Sprintf("key-%d", round)
			var wg sync.WaitGroup
			wg.Add(cfg.Concurrency)
			for c := 0; c < cfg.Concurrency; c++ {
				go func() {
					defer wg.Done()
					createKey(pool, model, key)
				}()
			}
			wg.Wait()
		}
		return nil
	})
}

// WorkloadConfig parameterizes the Figure 3 uniqueness workload test.
type WorkloadConfig struct {
	// KeySpaces is the x-axis (paper: 1 to 1M).
	KeySpaces []int64
	// Distributions to sweep (paper: uniform, YCSB, LinkBench x2).
	Distributions []string
	// Clients is the number of concurrent clients (64), each issuing
	// OpsPerClient operations (100).
	Clients      int
	OpsPerClient int
	// Workers is the Unicorn pool size (64).
	Workers int
	// Seed derives each client's key generator.
	Seed int64
	// CellEnv is the environment every cell runs in.
	CellEnv
}

// DefaultWorkloadConfig returns the paper's parameters.
func DefaultWorkloadConfig() WorkloadConfig {
	return WorkloadConfig{
		KeySpaces:     []int64{1, 10, 100, 1000, 10000, 100000, 1000000},
		Distributions: workload.Names(),
		Clients:       64,
		OpsPerClient:  100,
		Workers:       64,
		Seed:          2015,
		CellEnv:       defaultCellEnv(),
	}
}

// WorkloadPoint is one Figure 3 data point.
type WorkloadPoint struct {
	Distribution string
	Keys         int64
	Duplicates   map[UniquenessVariant]int64
}

// RunUniquenessWorkload reproduces Figure 3: 64 clients independently
// issuing 100 insertions each with keys drawn from the distribution, for
// each key-space size, with and without the feral validation.
func RunUniquenessWorkload(cfg WorkloadConfig) ([]WorkloadPoint, error) {
	var out []WorkloadPoint
	for _, dist := range cfg.Distributions {
		for _, keys := range cfg.KeySpaces {
			point := WorkloadPoint{Distribution: dist, Keys: keys,
				Duplicates: map[UniquenessVariant]int64{}}
			for _, variant := range []UniquenessVariant{NoValidation, FeralValidation} {
				dups, err := uniquenessWorkloadCell(cfg, dist, keys, variant)
				if err != nil {
					return nil, fmt.Errorf("experiment: workload %s/%d: %w", dist, keys, err)
				}
				point.Duplicates[variant] = dups
			}
			out = append(out, point)
		}
	}
	return out, nil
}

// uniquenessWorkloadCell runs one (distribution, key space, variant) Figure 3
// cell: Clients independent clients, each creating OpsPerClient keys drawn
// from its own seeded generator.
func uniquenessWorkloadCell(cfg WorkloadConfig, dist string, keys int64, variant UniquenessVariant) (int64, error) {
	label := fmt.Sprintf("workload-%s-k%d-v%d-%s", dist, keys, variant, cfg.Isolation)
	dups, _, err := uniquenessCell(cfg.CellEnv, label, cfg.Workers, variant, func(pool *appserver.Pool, model string) error {
		errs := make([]error, cfg.Clients)
		var wg sync.WaitGroup
		wg.Add(cfg.Clients)
		for c := range errs {
			go func() {
				defer wg.Done()
				gen, err := workload.New(dist, keys, cfg.Seed+int64(c)*7919)
				if err != nil {
					errs[c] = err
					return
				}
				for op := 0; op < cfg.OpsPerClient; op++ {
					createKey(pool, model, fmt.Sprintf("key-%d", gen.Next()))
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	return dups, err
}
