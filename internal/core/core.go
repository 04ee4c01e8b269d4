// Package core is the public façade of the reproduction: a Study handle
// that runs every analysis and experiment of the paper and renders results
// in the shape of its tables and figures. Downstream users who just want
// "give me the paper's numbers from this library" start here; users who
// want the pieces use the internal packages directly.
package core

import (
	"time"

	"feralcc/internal/corpus"
	"feralcc/internal/db"
	"feralcc/internal/experiment"
	"feralcc/internal/faultinject"
	"feralcc/internal/frameworks"
	"feralcc/internal/railsscan"
	"feralcc/internal/storage"
)

// Study orchestrates the full reproduction.
type Study struct {
	// Seed drives corpus synthesis and workload generation.
	Seed int64
	// Quick scales experiment parameters down (~10x) for smoke runs.
	Quick bool
	// ThinkTime, Faults, Retry, DataDir, Sync, CheckHistory and LiveCheck are
	// the experiment environment: together with Seed they become the one
	// experiment.CellEnv — documented field by field there — that every
	// Figure 2–5, isolevels and ssibug cell runs in (feralbench -think,
	// -faults, -data-dir, -sync, -check-history, -live-check).
	ThinkTime time.Duration
	Faults    faultinject.Spec
	// Retry, left zero, defaults to a small bounded policy whenever Faults is
	// non-empty, so injected failures degrade throughput instead of results.
	Retry        db.RetryPolicy
	DataDir      string
	Sync         string
	CheckHistory bool
	LiveCheck    bool

	analysis *experiment.CorpusAnalysis
}

// NewStudy returns a study with the paper's default parameters.
func NewStudy() *Study {
	return &Study{Seed: 2015, ThinkTime: time.Millisecond}
}

// Analysis lazily runs (and caches) the corpus generation + scan +
// classification pipeline shared by Table 1, Table 2, Figure 1, and the
// safety summary.
func (s *Study) Analysis() *experiment.CorpusAnalysis {
	if s.analysis == nil {
		s.analysis = experiment.RunCorpusAnalysis(s.Seed)
	}
	return s.analysis
}

// Corpus returns the generated application corpus.
func (s *Study) Corpus() *corpus.Corpus { return s.Analysis().Corpus }

// Counts returns the per-application scan results.
func (s *Study) Counts() []*railsscan.Counts { return s.Analysis().Counts }

// env builds the cell environment the study's settings describe. Isolation
// stays at the paper's Read Committed default; the isolation sweep and the
// SSI-bug run set it per cell.
func (s *Study) env() experiment.CellEnv {
	env := experiment.CellEnv{
		ThinkTime:    s.ThinkTime,
		DataDir:      s.DataDir,
		Sync:         s.Sync,
		CheckHistory: s.CheckHistory,
		LiveCheck:    s.LiveCheck,
	}
	if !s.Faults.Empty() {
		env.Faults = s.Faults
		env.FaultSeed = s.Seed
		env.Retry = s.Retry
		if !env.Retry.Enabled() {
			env.Retry = db.RetryPolicy{MaxRetries: 5, Seed: uint64(s.Seed)}
		}
	}
	return env
}

// StressConfig returns the Figure 2 configuration at the study's scale.
func (s *Study) StressConfig() experiment.StressConfig {
	cfg := experiment.DefaultStressConfig()
	cfg.CellEnv = s.env()
	if s.Quick {
		cfg.Workers = []int{1, 4, 16, 64}
		cfg.Rounds = 20
		cfg.Concurrency = 32
	}
	return cfg
}

// WorkloadConfig returns the Figure 3 configuration at the study's scale.
func (s *Study) WorkloadConfig() experiment.WorkloadConfig {
	cfg := experiment.DefaultWorkloadConfig()
	cfg.CellEnv = s.env()
	cfg.Seed = s.Seed
	if s.Quick {
		cfg.KeySpaces = []int64{1, 100, 10000, 1000000}
		cfg.Clients = 32
		cfg.OpsPerClient = 50
		cfg.Workers = 32
	}
	return cfg
}

// AssociationStressConfig returns the Figure 4 configuration.
func (s *Study) AssociationStressConfig() experiment.AssociationStressConfig {
	cfg := experiment.DefaultAssociationStressConfig()
	cfg.CellEnv = s.env()
	if s.Quick {
		cfg.Workers = []int{1, 4, 16, 64}
		cfg.Departments = 25
		cfg.InsertsPerDepartment = 32
	}
	return cfg
}

// AssociationWorkloadConfig returns the Figure 5 configuration.
func (s *Study) AssociationWorkloadConfig() experiment.AssociationWorkloadConfig {
	cfg := experiment.DefaultAssociationWorkloadConfig()
	cfg.CellEnv = s.env()
	cfg.Seed = s.Seed
	if s.Quick {
		cfg.DepartmentCounts = []int{1, 10, 100, 1000}
		cfg.Clients = 32
		cfg.Ops = 50
		cfg.Workers = 32
	}
	return cfg
}

// RunUniquenessStress runs Figure 2.
func (s *Study) RunUniquenessStress() ([]experiment.StressPoint, error) {
	return experiment.RunUniquenessStress(s.StressConfig())
}

// RunUniquenessWorkload runs Figure 3.
func (s *Study) RunUniquenessWorkload() ([]experiment.WorkloadPoint, error) {
	return experiment.RunUniquenessWorkload(s.WorkloadConfig())
}

// RunAssociationStress runs Figure 4.
func (s *Study) RunAssociationStress() ([]experiment.AssociationStressPoint, error) {
	return experiment.RunAssociationStress(s.AssociationStressConfig())
}

// RunAssociationWorkload runs Figure 5.
func (s *Study) RunAssociationWorkload() ([]experiment.AssociationWorkloadPoint, error) {
	return experiment.RunAssociationWorkload(s.AssociationWorkloadConfig())
}

// RunHistory runs Figure 6 at the given snapshot resolution.
func (s *Study) RunHistory(points int) []experiment.HistoryPoint {
	return experiment.RunHistoryAnalysis(s.Corpus(), points)
}

// RunAuthorship runs Figure 7.
func (s *Study) RunAuthorship() experiment.AuthorshipSummary {
	return experiment.RunAuthorshipAnalysis(s.Corpus())
}

// RunSSIBug runs the footnote 8 reproduction.
func (s *Study) RunSSIBug() (experiment.SSIBugResult, error) {
	workers, rounds, concurrency := 16, 100, 64
	if s.Quick {
		workers, rounds, concurrency = 8, 25, 16
	}
	return experiment.RunSSIBug(s.env(), workers, rounds, concurrency)
}

// RunIsolationSweep runs the extension experiment: both anomaly classes
// measured at every isolation level the engine implements.
func (s *Study) RunIsolationSweep() ([]experiment.IsolationSweepPoint, error) {
	cfg := experiment.DefaultIsolationSweepConfig()
	cfg.CellEnv = s.env()
	if s.Quick {
		cfg.Workers, cfg.Rounds, cfg.Concurrency = 8, 10, 16
	}
	return experiment.RunIsolationSweep(cfg)
}

// FrameworkVerdict is the hunt's decision on one Section 6 cell: one
// profile's race at one isolation level.
type FrameworkVerdict struct {
	Profile frameworks.Profile
	// Race is the workload name: "uniqueness" or "association".
	Race    string
	Level   storage.IsolationLevel
	Outcome *experiment.HuntOutcome
}

// frameworkSurveyBudget is the schedules hunted per survey cell before it
// reads "not found".
const frameworkSurveyBudget = 50

// RunFrameworkSurvey decides Section 6: every surveyed profile's two feral
// races (frameworks.Races), hunted for a broken invariant at READ COMMITTED,
// the paper's default, and at SERIALIZABLE, which rescues exactly the
// profiles that share a transaction between validation and write. Random
// schedules are seeded from the study's Seed.
func (s *Study) RunFrameworkSurvey() ([]FrameworkVerdict, error) {
	var out []FrameworkVerdict
	for _, p := range frameworks.Survey() {
		for _, w := range frameworks.Races(p) {
			for _, level := range []storage.IsolationLevel{storage.ReadCommitted, storage.Serializable} {
				o, err := experiment.Hunt(w, level, frameworkSurveyBudget, s.Seed, "invariant")
				if err != nil {
					return nil, err
				}
				out = append(out, FrameworkVerdict{Profile: p, Race: w.Name, Level: level, Outcome: o})
			}
		}
	}
	return out, nil
}
