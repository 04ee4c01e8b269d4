package experiment

import (
	"math"
	"runtime"
	"testing"
	"time"

	"feralcc/internal/db"
	"feralcc/internal/faultinject"
	"feralcc/internal/storage"
	"feralcc/internal/workload"
)

// Scaled-down configurations keep the test suite fast; the bench harness
// runs the paper-scale parameters.
func smallStress() StressConfig {
	return StressConfig{
		Workers:     []int{1, 4, 16},
		Concurrency: 16,
		Rounds:      20,
		CellEnv:     CellEnv{Isolation: storage.ReadCommitted, ThinkTime: 2 * time.Millisecond},
	}
}

func TestUniquenessStressShape(t *testing.T) {
	points, err := RunUniquenessStress(smallStress())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	expectedNoValidation := int64(20 * (16 - 1)) // every request commits
	for _, p := range points {
		if p.Duplicates[NoValidation] != expectedNoValidation {
			t.Errorf("P=%d without validation: %d duplicates, want %d",
				p.Workers, p.Duplicates[NoValidation], expectedNoValidation)
		}
		if p.Duplicates[FeralWithIndex] != 0 {
			t.Errorf("P=%d with unique index: %d duplicates, want 0",
				p.Workers, p.Duplicates[FeralWithIndex])
		}
		if p.Duplicates[FeralValidation] > p.Duplicates[NoValidation] {
			t.Errorf("P=%d validation produced MORE duplicates than none", p.Workers)
		}
	}
	// Single worker serializes validations: zero duplicates.
	if points[0].Duplicates[FeralValidation] != 0 {
		t.Errorf("P=1 with validation: %d duplicates, want 0", points[0].Duplicates[FeralValidation])
	}
	// More workers admit more duplicates (the Figure 2 trend).
	if points[2].Duplicates[FeralValidation] <= points[0].Duplicates[FeralValidation] {
		t.Errorf("duplicates did not grow with workers: P=1 %d, P=16 %d",
			points[0].Duplicates[FeralValidation], points[2].Duplicates[FeralValidation])
	}
}

// TestUniquenessStressDurable runs a small Figure 2 cell against durable
// per-cell stores: the anomaly census happens after a close-and-recover
// cycle, so the duplicates it reports provably survive a restart.
func TestUniquenessStressDurable(t *testing.T) {
	cfg := smallStress()
	cfg.Workers = []int{8}
	cfg.DataDir = t.TempDir()
	points, err := RunUniquenessStress(cfg)
	if err != nil {
		t.Fatal(err)
	}
	expectedNoValidation := int64(20 * (16 - 1))
	if got := points[0].Duplicates[NoValidation]; got != expectedNoValidation {
		t.Fatalf("durable cell lost rows across restart: %d duplicates, want %d", got, expectedNoValidation)
	}
	if got := points[0].Duplicates[FeralWithIndex]; got != 0 {
		t.Fatalf("unique index admitted %d duplicates across restart", got)
	}
}

func TestUniquenessStressSerializableIsClean(t *testing.T) {
	cfg := smallStress()
	cfg.Workers = []int{8}
	cfg.Isolation = storage.Serializable
	points, err := RunUniquenessStress(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := points[0].Duplicates[FeralValidation]; got != 0 {
		t.Fatalf("serializable admitted %d duplicates", got)
	}
}

func TestUniquenessWorkloadShape(t *testing.T) {
	cfg := WorkloadConfig{
		KeySpaces:     []int64{1, 100, 100000},
		Distributions: []string{workload.Uniform, workload.YCSBZipfian},
		Clients:       16,
		OpsPerClient:  25,
		Workers:       16,
		Seed:          2015,
		CellEnv:       CellEnv{Isolation: storage.ReadCommitted, ThinkTime: time.Millisecond},
	}
	points, err := RunUniquenessWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]map[int64]int64{}
	for _, p := range points {
		if byKey[p.Distribution] == nil {
			byKey[p.Distribution] = map[int64]int64{}
		}
		byKey[p.Distribution][p.Keys] = p.Duplicates[FeralValidation]
		// Without validation, every op commits: duplicates = ops - distinct.
		if p.Duplicates[NoValidation] < p.Duplicates[FeralValidation] {
			t.Errorf("%s/%d: validation above no-validation", p.Distribution, p.Keys)
		}
	}
	// Large key spaces nearly eliminate contention (Figure 3's right edge).
	if byKey[workload.Uniform][100000] > 2 {
		t.Errorf("uniform @100k keys: %d duplicates (expected ~0)", byKey[workload.Uniform][100000])
	}
	// YCSB's hot key keeps contention high relative to uniform at large N.
	if byKey[workload.YCSBZipfian][100000] < byKey[workload.Uniform][100000] {
		t.Errorf("YCSB (%d) should retain at least as many duplicates as uniform (%d) at 100k keys",
			byKey[workload.YCSBZipfian][100000], byKey[workload.Uniform][100000])
	}
}

// TestUniquenessWorkloadUnderFaults runs one Figure 3 cell with fault
// injection armed — every statement delayed a millisecond — and the retry
// policy core.Study defaults to: the environment is the same one Figure 2's
// chaos suite runs in, and latency alone must not change what the cell counts.
func TestUniquenessWorkloadUnderFaults(t *testing.T) {
	spec, err := faultinject.ParseSpec("latency=1ms")
	if err != nil {
		t.Fatal(err)
	}
	cfg := WorkloadConfig{
		KeySpaces:     []int64{10},
		Distributions: []string{workload.Uniform},
		Clients:       8,
		OpsPerClient:  10,
		Workers:       8,
		Seed:          2015,
		CellEnv: CellEnv{
			ThinkTime: time.Millisecond,
			Faults:    spec,
			FaultSeed: 2015,
			Retry:     db.RetryPolicy{MaxRetries: 5, Seed: 2015},
		},
	}
	points, err := RunUniquenessWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 80 creations over 10 keys with no validation: every one commits.
	if got := points[0].Duplicates[NoValidation]; got != 70 {
		t.Errorf("without validation: %d duplicates, want 70", got)
	}
	if feral := points[0].Duplicates[FeralValidation]; feral > 70 {
		t.Errorf("validation produced more duplicates (%d) than none", feral)
	}
}

func TestAssociationStressShape(t *testing.T) {
	cfg := AssociationStressConfig{
		Workers:              []int{1, 16},
		Departments:          20,
		InsertsPerDepartment: 16,
		CellEnv:              CellEnv{Isolation: storage.ReadCommitted, ThinkTime: 2 * time.Millisecond},
	}
	points, err := RunAssociationStress(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(20 * 16)
	for _, p := range points {
		if p.Orphans[NoConstraints] != total {
			t.Errorf("P=%d without constraints: %d orphans, want %d",
				p.Workers, p.Orphans[NoConstraints], total)
		}
		if p.Orphans[InDatabaseFK] != 0 {
			t.Errorf("P=%d with in-database FK: %d orphans, want 0", p.Workers, p.Orphans[InDatabaseFK])
		}
		if p.Orphans[FeralAssociation] > p.Orphans[NoConstraints] {
			t.Errorf("P=%d feral produced more orphans than nothing", p.Workers)
		}
	}
	if points[1].Orphans[FeralAssociation] < points[0].Orphans[FeralAssociation] {
		t.Errorf("orphans did not grow with workers: P=1 %d, P=16 %d",
			points[0].Orphans[FeralAssociation], points[1].Orphans[FeralAssociation])
	}
}

// TestAssociationStressDurable runs a small Figure 4 cell against durable
// per-cell stores: the orphans counted on the recovered database are the ones
// an in-memory cell counts live, and the in-database foreign key still admits
// none.
func TestAssociationStressDurable(t *testing.T) {
	cfg := AssociationStressConfig{
		Workers:              []int{8},
		Departments:          10,
		InsertsPerDepartment: 8,
		CellEnv:              CellEnv{ThinkTime: 2 * time.Millisecond, DataDir: t.TempDir()},
	}
	points, err := RunAssociationStress(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Without constraints every insert commits and every department is
	// deleted, so the live count is exact — and must survive the restart.
	if got, want := points[0].Orphans[NoConstraints], int64(10*8); got != want {
		t.Fatalf("durable cell lost rows across restart: %d orphans, want %d", got, want)
	}
	if got := points[0].Orphans[InDatabaseFK]; got != 0 {
		t.Fatalf("in-database FK admitted %d orphans across restart", got)
	}
}

// TestCellsCloseTheirDatabase runs one quick cell of each figure with the
// live watcher attached — one goroutine per open database — and requires the
// goroutine count to return to its baseline: every cell closed its database.
func TestCellsCloseTheirDatabase(t *testing.T) {
	env := CellEnv{ThinkTime: time.Millisecond, LiveCheck: true}
	baseline := runtime.NumGoroutine()
	if _, _, err := uniquenessStressCell(StressConfig{Concurrency: 4, Rounds: 2, CellEnv: env}, 4, FeralValidation); err != nil {
		t.Fatal(err)
	}
	if _, err := uniquenessWorkloadCell(WorkloadConfig{Clients: 4, OpsPerClient: 2, Workers: 4, CellEnv: env},
		workload.Uniform, 10, FeralValidation); err != nil {
		t.Fatal(err)
	}
	if _, err := associationStressCell(AssociationStressConfig{Departments: 2, InsertsPerDepartment: 4, CellEnv: env},
		4, FeralAssociation); err != nil {
		t.Fatal(err)
	}
	if _, err := associationWorkloadCell(AssociationWorkloadConfig{Clients: 4, Ops: 4, Workers: 4, CellEnv: env},
		2, FeralAssociation); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the cells (baseline %d): a cell leaked its database",
				runtime.NumGoroutine()-baseline, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestAssociationWorkloadRuns(t *testing.T) {
	cfg := AssociationWorkloadConfig{
		DepartmentCounts: []int{1, 10},
		Clients:          8,
		Ops:              20,
		Workers:          8,
		Seed:             7,
		CellEnv:          CellEnv{Isolation: storage.ReadCommitted, ThinkTime: time.Millisecond},
	}
	points, err := RunAssociationWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Orphans[FeralAssociation] > p.Orphans[NoConstraints] {
			t.Errorf("D=%d: feral above no-constraint baseline", p.Departments)
		}
	}
}

func TestSSIBugReproduction(t *testing.T) {
	// CheckHistory gates the correct-SERIALIZABLE and READ COMMITTED cells
	// (any forbidden anomaly fails the run). The PhantomBug cell is gated too,
	// but it deliberately breaks the level it claims; see EXPERIMENTS.md for
	// what the checker makes of it.
	env := CellEnv{ThinkTime: time.Millisecond, CheckHistory: true}
	res, err := RunSSIBug(env, 8, 30, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.DuplicatesCorrect != 0 {
		t.Errorf("correct serializable admitted %d duplicates", res.DuplicatesCorrect)
	}
	if res.DuplicatesBuggy == 0 {
		t.Errorf("phantom-bug mode admitted no duplicates; the bug did not reproduce")
	}
	if res.DuplicatesReadCommitted < res.DuplicatesBuggy {
		t.Logf("note: RC (%d) below buggy-serializable (%d); acceptable, both nonzero",
			res.DuplicatesReadCommitted, res.DuplicatesBuggy)
	}
}

func TestCorpusAnalysisPipeline(t *testing.T) {
	a := RunCorpusAnalysis(2015)
	if len(a.Counts) != 67 {
		t.Fatalf("apps scanned = %d", len(a.Counts))
	}
	if math.Abs(a.Report.SafeUnderInsertion-0.869) > 0.002 {
		t.Errorf("safe under insertion = %.4f", a.Report.SafeUnderInsertion)
	}
	rows, avg := Figure1(a.Counts)
	if len(rows) != 67 {
		t.Fatalf("figure 1 rows = %d", len(rows))
	}
	// Validations and associations are 13.6x / 24.2x more common than
	// transactions (Section 3.2) — check the ratios from the scan.
	var sumT, sumV, sumA int
	for _, c := range a.Counts {
		sumT += c.Transactions
		sumV += c.Validations
		sumA += c.Associations
	}
	vRatio := float64(sumV) / float64(sumT)
	aRatio := float64(sumA) / float64(sumT)
	if math.Abs(vRatio-13.6) > 0.2 {
		t.Errorf("validations/transactions = %.1f, want ~13.6", vRatio)
	}
	if math.Abs(aRatio-24.2) > 0.3 {
		t.Errorf("associations/transactions = %.1f, want ~24.2", aRatio)
	}
	if avg.Models != 29 {
		t.Errorf("average models = %d, want 29", avg.Models)
	}
}

func TestHistoryAnalysisShape(t *testing.T) {
	a := RunCorpusAnalysis(2015)
	points := RunHistoryAnalysis(a.Corpus, 5)
	if len(points) != 5 {
		t.Fatalf("points = %d", len(points))
	}
	early := points[1] // 40% of history
	// Figure 6's finding: the data model stabilizes before the concurrency
	// control mechanisms.
	if !(early.Models > early.Validations) {
		t.Errorf("at 40%% history, models (%.2f) should lead validations (%.2f)",
			early.Models, early.Validations)
	}
	if !(early.Models > early.Transactions) {
		t.Errorf("at 40%% history, models (%.2f) should lead transactions (%.2f)",
			early.Models, early.Transactions)
	}
	last := points[len(points)-1]
	for _, v := range []float64{last.Models, last.Validations, last.Associations} {
		if math.Abs(v-1.0) > 1e-9 {
			t.Errorf("final snapshot share = %f, want 1.0", v)
		}
	}
	// Monotonic growth.
	for i := 1; i < len(points); i++ {
		if points[i].Models < points[i-1].Models-1e-9 {
			t.Error("model share decreased over history")
		}
	}
}

func TestAuthorshipAnalysisMatchesFigure7(t *testing.T) {
	a := RunCorpusAnalysis(2015)
	sum := RunAuthorshipAnalysis(a.Corpus)
	if math.Abs(sum.CommitAuthorShare95-0.424) > 0.06 {
		t.Errorf("95%% of commits by %.3f of authors, want ~0.424", sum.CommitAuthorShare95)
	}
	if math.Abs(sum.InvariantAuthorShare95-0.203) > 0.06 {
		t.Errorf("95%% of invariants by %.3f of authors, want ~0.203", sum.InvariantAuthorShare95)
	}
	if sum.InvariantAuthorShare95 >= sum.CommitAuthorShare95 {
		t.Error("invariant authorship should be more concentrated than commit authorship")
	}
	// CDFs are monotone from 0 to 1.
	for i := 1; i < len(sum.Grid); i++ {
		if sum.CommitCDF[i] < sum.CommitCDF[i-1]-1e-9 {
			t.Error("commit CDF not monotone")
		}
	}
	if sum.CommitCDF[len(sum.CommitCDF)-1] < 0.999 {
		t.Error("commit CDF does not reach 1")
	}
}

func TestIsolationSweep(t *testing.T) {
	// The SERIALIZABLE 2PL cells resolve their upgrade deadlocks by lock
	// timeout; at feralbench's two seconds they are most of this suite's time.
	cfg := IsolationSweepConfig{Workers: 8, Rounds: 8, Concurrency: 8,
		CellEnv: CellEnv{ThinkTime: 2 * time.Millisecond, lockTimeout: 100 * time.Millisecond}}
	points, err := RunIsolationSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 {
		t.Fatalf("points = %d", len(points))
	}
	byLevel := map[storage.IsolationLevel]IsolationSweepPoint{}
	for _, p := range points {
		byLevel[p.Level] = p
	}
	// Weak levels admit duplicates; serializable levels do not.
	for _, weak := range []storage.IsolationLevel{storage.ReadCommitted, storage.RepeatableRead, storage.SnapshotIsolation} {
		if byLevel[weak].Duplicates == 0 {
			t.Errorf("%v admitted no duplicates under contention", weak)
		}
		if byLevel[weak].Orphans == 0 {
			t.Errorf("%v admitted no orphans under contention", weak)
		}
	}
	for _, strong := range []storage.IsolationLevel{storage.Serializable, storage.Serializable2PL} {
		if byLevel[strong].Duplicates != 0 {
			t.Errorf("%v admitted %d duplicates", strong, byLevel[strong].Duplicates)
		}
	}
	// Serializable pays with aborts instead.
	if byLevel[storage.Serializable].SerializationFailures == 0 {
		t.Error("serializable reported no serialization failures under contention")
	}
}
