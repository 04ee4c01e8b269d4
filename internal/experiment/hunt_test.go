package experiment

import (
	"bytes"
	"testing"

	"feralcc/internal/histcheck"
	"feralcc/internal/sched"
	"feralcc/internal/storage"
)

// huntLevels is every isolation level the engine implements; parity and
// determinism must hold across the whole ladder.
var huntLevels = []storage.IsolationLevel{
	storage.ReadCommitted,
	storage.RepeatableRead,
	storage.SnapshotIsolation,
	storage.Serializable,
	storage.Serializable2PL,
}

func TestHuntScheduleDefaultOrderIsSerial(t *testing.T) {
	// Under the default schedule tasks run to completion in index order — a
	// serial execution, which must be anomaly-free at every level.
	for _, w := range HuntWorkloads() {
		for _, level := range huntLevels {
			res, err := RunHuntSchedule(w, level, sched.Schedule{})
			if err != nil {
				t.Fatalf("%s@%v: %v", w.Name, level, err)
			}
			if got := res.Anomalies(); len(got) != 0 {
				t.Errorf("%s@%v: serial schedule produced anomalies %v\n%s", w.Name, level, got, res.Report)
			}
			if res.Decisions == 0 {
				t.Errorf("%s@%v: no scheduling decisions recorded", w.Name, level)
			}
		}
	}
}

func TestHuntDirectedDelayFindsLostUpdate(t *testing.T) {
	// The almost-cycle-closing move: hold task 0 at its commit until task 1
	// reaches its own commit, so both increments read the seed balance. At
	// read committed this is the Lost Update G-single cycle.
	sc := sched.Schedule{Delays: []sched.Delay{{
		Task: 0, Point: storage.YieldCommit,
		Until: sched.Until{Task: 1, Point: storage.YieldCommit},
	}}}
	res, err := RunHuntSchedule(LostUpdateWorkload(), storage.ReadCommitted, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Has(histcheck.GSingle) {
		t.Fatalf("directed delay missed lost update:\n%s", res.Report)
	}
	if !res.Report.Pass() {
		t.Fatalf("G-single must be admitted at READ COMMITTED:\n%s", res.Report)
	}
}

func TestHuntDirectedDelayFindsWriteSkew(t *testing.T) {
	sc := sched.Schedule{Delays: []sched.Delay{{
		Task: 0, Point: storage.YieldCommit,
		Until: sched.Until{Task: 1, Point: storage.YieldCommit},
	}}}
	res, err := RunHuntSchedule(WriteSkewWorkload(), storage.SnapshotIsolation, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Has(histcheck.G2Item) {
		t.Fatalf("directed delay missed write skew:\n%s", res.Report)
	}
	if !res.Report.Pass() {
		t.Fatalf("G2-item must be admitted at SNAPSHOT ISOLATION:\n%s", res.Report)
	}
}

// TestHuntSchedDeterminism pins the tentpole's core property: the same
// (seed, workload, level) pair replayed from scratch produces byte-identical
// history JSONL. Runs under -race in the hunt-regress CI job, where the race
// detector's timing perturbation would expose any schedule leak.
func TestHuntSchedDeterminism(t *testing.T) {
	for _, w := range HuntWorkloads() {
		for seed := int64(1); seed <= 5; seed++ {
			sc := sched.RandomSchedule(seed, len(w.Tasks), 20, 3)
			var first []byte
			for rep := 0; rep < 2; rep++ {
				res, err := RunHuntSchedule(w, storage.ReadCommitted, sc)
				if err != nil {
					t.Fatalf("%s seed %d rep %d: %v", w.Name, seed, rep, err)
				}
				var buf bytes.Buffer
				if err := histcheck.WriteJSONL(&buf, res.Events); err != nil {
					t.Fatal(err)
				}
				if rep == 0 {
					first = buf.Bytes()
				} else if !bytes.Equal(first, buf.Bytes()) {
					t.Fatalf("%s seed %d: nondeterministic history\n--- run 1 ---\n%s--- run 2 ---\n%s",
						w.Name, seed, first, buf.Bytes())
				}
			}
		}
	}
}

// TestHuntSchedulesWithinContract hunts every catalog workload over a fixed
// schedule set — the natural order, both anomaly-forcing directed delays, and
// a spread of random schedules — at every isolation level: each run must stay
// within its level's admitted anomaly classes.
func TestHuntSchedulesWithinContract(t *testing.T) {
	if testing.Short() {
		t.Skip("contract sweep is the long half of the hunt suite")
	}
	schedules := []sched.Schedule{
		{},
		{Delays: []sched.Delay{{Task: 0, Point: storage.YieldCommit, Until: sched.Until{Task: 1, Point: storage.YieldCommit}}}},
		{Delays: []sched.Delay{{Task: 1, Point: storage.YieldCommit, Until: sched.Until{Task: 0, Point: storage.YieldCommit}}}},
	}
	for seed := int64(1); seed <= 12; seed++ {
		schedules = append(schedules, sched.RandomSchedule(seed, 2, 20, 3))
	}
	for _, w := range HuntWorkloads() {
		for _, level := range huntLevels {
			for _, sc := range schedules {
				res, err := RunHuntSchedule(w, level, sc)
				if err != nil {
					t.Fatalf("%s@%v: %v", w.Name, level, err)
				}
				if !res.Report.Pass() {
					t.Fatalf("%s@%v (%s): engine exceeded its isolation contract\n%s",
						w.Name, level, sc, res.Report)
				}
			}
		}
	}
}
