package experiment

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strings"
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
	res, err := RunHuntSchedule(mustHuntWorkload(t, "lost-update"), storage.ReadCommitted, sc)
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
	res, err := RunHuntSchedule(mustHuntWorkload(t, "write-skew"), storage.SnapshotIsolation, sc)
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

// TestHuntDurableReplay extends determinism to durable stores: every catalog
// workload at every level under RandomSchedule seeds 1–8 runs twice, each
// time against a fresh data directory, and the two runs must render the same
// huntOracleFile row — history, decision count, task errors and invariant.
// It holds because the committer leading a group-commit batch is a scheduled
// task that writes and fsyncs between yield points, so fsync timing cannot
// move a decision. sync=interval is left out: its background syncer is not a
// scheduled task.
func TestHuntDurableReplay(t *testing.T) {
	for _, pol := range []storage.SyncPolicy{storage.SyncAlways, storage.SyncOff} {
		differ := 0
		for _, w := range HuntWorkloads() {
			for _, level := range huntLevels {
				for seed := int64(1); seed <= 8; seed++ {
					sc := sched.RandomSchedule(seed, len(w.Tasks), 20, 3)
					var rows [2]string
					for rep := range rows {
						opts := storage.Options{DataDir: t.TempDir(), SyncPolicy: pol}
						res, _, err := runHunt(w, level, &sc, opts)
						if err != nil {
							t.Fatalf("%s@%v seed %d sync=%s: %v", w.Name, level, seed, pol, err)
						}
						rows[rep] = huntOracleRow(t, w.Name, level, sc, res)
					}
					if rows[0] != rows[1] {
						if differ++; differ <= 3 {
							t.Errorf("sync=%s: durable run did not replay\n  run 1 %s\n  run 2 %s", pol, rows[0], rows[1])
						}
					}
				}
			}
		}
		if differ > 0 {
			t.Errorf("sync=%s: %d of %d durable runs differ from their replay", pol, differ, 8*len(huntLevels)*len(HuntWorkloads()))
		}
	}
}

// huntOracleFile pins every scheduled catalog run: one line per (workload,
// level, schedule) holding the history's sha256, the decision count, the task
// outcomes, the tx-to-task mapping and whether the invariant fired. A change
// to how the hunt runner or a catalog workload drives the engine shows up
// here as a differing line, even when every run stays within its contract.
const huntOracleFile = "testdata/hunt_schedules.golden"

// TestHuntSchedulesWithinContract hunts every catalog workload over a fixed
// schedule set — the natural order, both anomaly-forcing directed delays, and
// a spread of random schedules — at every isolation level: each run must stay
// within its level's admitted anomaly classes, and the runs must match
// huntOracleFile line for line.
func TestHuntSchedulesWithinContract(t *testing.T) {
	if testing.Short() {
		t.Skip("contract sweep is the long half of the hunt suite")
	}
	var got []string
	for _, w := range HuntWorkloads() {
		schedules := []sched.Schedule{
			{},
			{Delays: []sched.Delay{{Task: 0, Point: storage.YieldCommit, Until: sched.Until{Task: 1, Point: storage.YieldCommit}}}},
			{Delays: []sched.Delay{{Task: 1, Point: storage.YieldCommit, Until: sched.Until{Task: 0, Point: storage.YieldCommit}}}},
		}
		for seed := int64(1); seed <= 40; seed++ {
			schedules = append(schedules, sched.RandomSchedule(seed, len(w.Tasks), 20, 3))
		}
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
				got = append(got, huntOracleRow(t, w.Name, level, sc, res))
			}
		}
	}
	raw, err := os.ReadFile(huntOracleFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	var diffs []string
	for i := 0; i < len(got) || i < len(want); i++ {
		g, w := "<none>", "<none>"
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w && len(diffs) < 6 {
			diffs = append(diffs, fmt.Sprintf("row %d:\n  want %s\n  got  %s", i+1, w, g))
		}
	}
	if len(diffs) > 0 {
		t.Fatalf("hunt runs differ from %s (%d rows, want %d); first differences:\n%s",
			huntOracleFile, len(got), len(want), strings.Join(diffs, "\n"))
	}
}

// huntOracleRow renders one run as a huntOracleFile line.
func huntOracleRow(t *testing.T, name string, level storage.IsolationLevel, sc sched.Schedule, res *HuntResult) string {
	var buf bytes.Buffer
	if err := histcheck.WriteJSONL(&buf, res.Events); err != nil {
		t.Fatal(err)
	}
	errs := make([]string, len(res.TaskErrs))
	for i, err := range res.TaskErrs {
		errs[i] = fmt.Sprint(err)
	}
	var pairs []string
	for tx, task := range res.TxTask {
		pairs = append(pairs, fmt.Sprintf("%d:%d", tx, task))
	}
	sort.Strings(pairs)
	return fmt.Sprintf("%s\t%s\t%s\tsha256=%x\tdecisions=%d\terrs=%q\ttxtask=%v\tinvariant=%v",
		name, level, sc, sha256.Sum256(buf.Bytes()), res.Decisions, errs, pairs, res.InvariantViolation != "")
}

// mustHuntWorkload looks up a catalog workload by name.
func mustHuntWorkload(t *testing.T, name string) HuntWorkload {
	t.Helper()
	w, err := HuntWorkloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestDSLAddUsesItsOwnRead pins that add builds on the value read for its own
// (table, row, column): after reading both rows, row 1 must end at its own
// 60 - 100, not at row 2's 70 - 100.
func TestDSLAddUsesItsOwnRead(t *testing.T) {
	const src = `
table accounts id:int:pk balance:int
row accounts balance=60
row accounts balance=70
invariant one-of accounts 1 balance -40
task
  read accounts 1 balance
  read accounts 2 balance
  add accounts 1 balance -100
task
  read accounts 1 balance
`
	w, err := ParseHuntWorkload(strings.NewReader(src), "two-reads")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunHuntSchedule(w, storage.ReadCommitted, sched.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TaskErrs[0] != nil || res.InvariantViolation != "" {
		t.Fatalf("task 0: %v; want row 1 at -40: %s", res.TaskErrs[0], res.InvariantViolation)
	}
}

// TestDSLInsertUnlessDeterministic pins that insert-unless probes the first
// column written, so one schedule always records one history.
func TestDSLInsertUnlessDeterministic(t *testing.T) {
	const src = `
table users id:int:pk email:string name:string
task
  insert-unless users email=a name=b
task
  insert-unless users email=a name=b
`
	w, err := ParseHuntWorkload(strings.NewReader(src), "two-columns")
	if err != nil {
		t.Fatal(err)
	}
	var first []byte
	for rep := 0; rep < 10; rep++ {
		res, err := RunHuntSchedule(w, storage.ReadCommitted, sched.Schedule{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := histcheck.WriteJSONL(&buf, res.Events); err != nil {
			t.Fatal(err)
		}
		if rep == 0 {
			first = buf.Bytes()
		} else if !bytes.Equal(first, buf.Bytes()) {
			t.Fatalf("rep %d: history differs\n--- rep 0 ---\n%s--- rep %d ---\n%s", rep, first, rep, buf.Bytes())
		}
	}
	if !bytes.Contains(first, []byte("email")) {
		t.Errorf("the probe must scan the first column written, email:\n%s", first)
	}
}
