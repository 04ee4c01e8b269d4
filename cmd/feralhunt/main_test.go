package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"feralcc/internal/experiment"
	"feralcc/internal/histcheck"
	"feralcc/internal/sched"
	"feralcc/internal/storage"
)

// TestHuntSmoke is the PR's acceptance criterion: the directed search must
// rediscover lost update at READ COMMITTED and write skew at SNAPSHOT
// ISOLATION within 100 schedules each, and certify the same workloads clean
// at SERIALIZABLE. The observed counts are far tighter than the bound — both
// anomalies fall to the first directed schedule (2 runs total) — so the
// assertions pin the order of magnitude, not just the ceiling.
func TestHuntSmoke(t *testing.T) {
	cases := []struct {
		workload string
		level    storage.IsolationLevel
		class    histcheck.Anomaly
		maxRuns  int
	}{
		{"lost-update", storage.ReadCommitted, histcheck.GSingle, 10},
		{"write-skew", storage.SnapshotIsolation, histcheck.G2Item, 10},
	}
	for _, tc := range cases {
		w, err := experiment.HuntWorkloadByName(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		res, err := hunt(w, tc.level, 100, 1, "any")
		if err != nil {
			t.Fatalf("%s@%s: %v", tc.workload, tc.level, err)
		}
		if !res.Found {
			t.Fatalf("%s@%s: not found in 100 schedules", tc.workload, tc.level)
		}
		if res.Class != string(tc.class) {
			t.Errorf("%s@%s: class = %s, want %s", tc.workload, tc.level, res.Class, tc.class)
		}
		if res.Schedules > tc.maxRuns {
			t.Errorf("%s@%s: took %d schedules, want <= %d", tc.workload, tc.level, res.Schedules, tc.maxRuns)
		}
		if res.Directed == 0 {
			t.Errorf("%s@%s: found by random schedule, not directed — steering regressed", tc.workload, tc.level)
		}
		if res.EngineBug {
			t.Errorf("%s@%s: anomaly reported FORBIDDEN; it is admitted at this level", tc.workload, tc.level)
		}
		// The minimized witness must still exhibit the class standalone.
		if !histcheck.Check(res.Witness).Has(tc.class) {
			t.Errorf("%s@%s: minimized witness lost the anomaly", tc.workload, tc.level)
		}
		if len(res.Witness) > len(res.Raw) {
			t.Errorf("%s@%s: minimization grew the history: %d > %d", tc.workload, tc.level, len(res.Witness), len(res.Raw))
		}
	}

	// The same workloads at SERIALIZABLE must yield a certificate, and every
	// explored schedule must pass — a find here is an engine bug.
	for _, name := range []string{"lost-update", "write-skew"} {
		w, err := experiment.HuntWorkloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		budget := 25
		if testing.Short() {
			budget = 10
		}
		res, err := hunt(w, storage.Serializable, budget, 1, "any")
		if err != nil {
			t.Fatalf("%s@SERIALIZABLE: %v", name, err)
		}
		if res.Found {
			t.Fatalf("%s@SERIALIZABLE: found %s (schedule %s) — serializable engine bug", name, res.Class, res.Schedule)
		}
		if res.Schedules != budget {
			t.Errorf("%s@SERIALIZABLE: explored %d schedules, want the full budget %d", name, res.Schedules, budget)
		}
	}
}

// TestHuntRegress replays the seeded witness corpus under testdata/hunt/,
// asserting each file still classifies as exactly the Adya class it was
// minimized for. The corpus files were emitted by feralhunt itself; a failure
// here means the checker's classification drifted.
func TestHuntRegress(t *testing.T) {
	corpus := map[string]histcheck.Anomaly{
		"lost_update_rc.jsonl": histcheck.GSingle,
		"write_skew_si.jsonl":  histcheck.G2Item,
	}
	dir := filepath.Join("..", "..", "testdata", "hunt")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, ent := range entries {
		if !strings.HasSuffix(ent.Name(), ".jsonl") {
			continue
		}
		want, ok := corpus[ent.Name()]
		if !ok {
			t.Errorf("%s: corpus file with no expected class registered in this test", ent.Name())
			continue
		}
		seen++
		f, err := os.Open(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		events, err := histcheck.ReadJSONL(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", ent.Name(), err)
		}
		rep := histcheck.Check(events)
		if !rep.Has(want) {
			t.Errorf("%s: want %s, got classes %v", ent.Name(), want, rep.Classes())
		}
		if !rep.Pass() {
			t.Errorf("%s: corpus anomaly reported forbidden at its recorded level: %+v", ent.Name(), rep.Findings)
		}
		// Minimized witnesses are exactly one anomaly class wide.
		if cs := rep.Classes(); len(cs) != 1 {
			t.Errorf("%s: want exactly one class, got %v", ent.Name(), cs)
		}
	}
	if seen != len(corpus) {
		t.Errorf("replayed %d corpus files, want %d", seen, len(corpus))
	}
}

// TestDSLHunt parses a custom lost-update template from the DSL and hunts it,
// expecting the same directed-schedule discovery the built-in catalog gets.
func TestDSLHunt(t *testing.T) {
	const src = `
# custom lost update
table accounts id:int:pk balance:int
row accounts balance=100
task
  read accounts 1 balance
  add accounts 1 balance 10
task
  read accounts 1 balance
  add accounts 1 balance 25
`
	w, err := experiment.ParseHuntWorkload(strings.NewReader(src), "custom-lu")
	if err != nil {
		t.Fatal(err)
	}
	res, err := hunt(w, storage.ReadCommitted, 100, 1, "any")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || res.Class != string(histcheck.GSingle) {
		t.Fatalf("found=%v class=%s, want G-single", res.Found, res.Class)
	}
	if res.Schedules > 10 {
		t.Errorf("took %d schedules, want <= 10", res.Schedules)
	}
}

// TestDSLAutocommitUniqueness drives the DSL's autocommit tasks and unique
// flag through feralhunt -dsl: when the feral probe and the insert commit
// separately, SERIALIZABLE cannot stop the duplicate, and only the
// in-database unique index certifies the race clean.
func TestDSLAutocommitUniqueness(t *testing.T) {
	const src = `
table users id:int:pk email:%s
invariant unique users email
task autocommit
  insert-unless users email=dup@example.com
task autocommit
  insert-unless users email=dup@example.com
`
	for _, tc := range []struct{ kind, want string }{
		{"string", "found invariant after 2 schedules (1 directed)"},
		{"string:unique", "no anomaly in 30 schedules"},
	} {
		path := filepath.Join(t.TempDir(), "uniq.hunt")
		if err := os.WriteFile(path, []byte(fmt.Sprintf(src, tc.kind)), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errw bytes.Buffer
		if code := run([]string{"-dsl", path, "-level", "SERIALIZABLE", "-target", "invariant", "-budget", "30"}, &out, &errw); code != 0 {
			t.Fatalf("email:%s: exit %d, stderr: %s", tc.kind, code, errw.String())
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("email:%s: output lacks %q:\n%s", tc.kind, tc.want, out.String())
		}
	}
}

// TestDSLOverloadShed pins the DSL's lock-queue-bound directive: with
// lock-queue-bound -1 the engine refuses lock waits, so holding task 0's
// commit open while task 1 runs forces task 1's conflicting write to shed
// with ErrOverloaded — deterministically, under the scheduler — and the shed
// must leave no trace (the Adya report stays clean, the committed write wins).
func TestDSLOverloadShed(t *testing.T) {
	const src = `
table accounts id:int:pk balance:int
row accounts balance=100
lock-queue-bound -1
task
  set accounts 1 balance 201
task
  set accounts 1 balance 202
`
	w, err := experiment.ParseHuntWorkload(strings.NewReader(src), "shed")
	if err != nil {
		t.Fatal(err)
	}
	if w.LockQueueBound != -1 {
		t.Fatalf("lock-queue-bound parsed as %d, want -1", w.LockQueueBound)
	}

	sc := sched.Schedule{Delays: []sched.Delay{{
		Task: 0, Point: storage.YieldCommit,
		Until: sched.Until{Task: 1, Point: storage.YieldCommit},
	}}}
	res, err := experiment.RunHuntSchedule(w, storage.ReadCommitted, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.TaskErrs[0] != nil {
		t.Fatalf("task 0 held the lock and must commit: %v", res.TaskErrs[0])
	}
	if !errors.Is(res.TaskErrs[1], storage.ErrOverloaded) {
		t.Fatalf("task 1 must shed on the held lock, got %v", res.TaskErrs[1])
	}
	if !res.Report.Pass() || res.InvariantViolation != "" {
		t.Fatalf("shed left a trace: report pass=%v invariant=%q", res.Report.Pass(), res.InvariantViolation)
	}
}

// TestDSLErrors pins the parser's rejection of malformed input.
func TestDSLErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"one task", "table t id:int:pk\ntask\n  read t 1 id\n", "at least 2 tasks"},
		{"op before task", "table t id:int:pk\nread t 1 id\n", "before any task"},
		{"bad kind", "table t id:float\n", "unknown kind"},
		{"bad statement", "tabel t id:int\n", "unknown statement"},
		{"removed directive", "commit-queue-bound 8\n", "unknown statement"},
		{"bad flag", "table t id:int:pk email:string:uniq\n", `unknown flag "uniq"`},
		{"ref undeclared", "table t id:int:pk p:int:ref=nope\n", `undeclared table "nope"`},
		{"ref declared later", "table c id:int:pk p:int:ref=parents\ntable parents id:int:pk\n", `dsl line 1: column "p:int:ref=parents": undeclared table "parents"`},
		{"ref without pk", "table p name:string\ntable c id:int:pk p:int:ref=p\n", "table p has no pk column"},
		{"task argument", "table t id:int:pk\ntask serial\n", "dsl line 2: want task [autocommit]"},
	}
	// Names must be declared, and add must build on a read of its own cell;
	// each case is line 4 of an otherwise valid two-task workload.
	for op, want := range map[string]string{
		"read accounts 1 balanec":             `dsl line 4: table accounts has no column "balanec"`,
		"read acounts 1 balance":              `dsl line 4: undeclared table "acounts"`,
		"add accounts 1 balance 5":            "dsl line 4: add accounts 1 balance: no earlier read",
		"insert-unless accounts owner=x":      `dsl line 4: table accounts has no column "owner"`,
		"absent accounts balance=1 balance=2": "dsl line 4: want absent <table> <col>=<value>",
		"guard-sum lots":                      `dsl line 4: guard-sum: bad <n> "lots"`,
	} {
		src := "table accounts id:int:pk balance:int\nrow accounts balance=1\ntask\n  " + op + "\ntask\n  read accounts 1 balance\n"
		cases = append(cases, struct{ name, src, wantErr string }{op, src, want})
	}
	for _, tc := range cases {
		if _, err := experiment.ParseHuntWorkload(strings.NewReader(tc.src), tc.name); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestRunCLI exercises the command end to end: a witness-producing hunt, a
// certificate hunt, and the usage/exit-code contract.
func TestRunCLI(t *testing.T) {
	dir := t.TempDir()

	var out, errw bytes.Buffer
	witness := filepath.Join(dir, "w.jsonl")
	if code := run([]string{"-workload", "lost-update", "-level", "READ COMMITTED", "-o", witness}, &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "found G-single") {
		t.Errorf("summary missing find: %s", out.String())
	}
	f, err := os.Open(witness)
	if err != nil {
		t.Fatal(err)
	}
	events, err := histcheck.ReadJSONL(f)
	f.Close()
	if err != nil {
		t.Fatalf("witness does not replay: %v", err)
	}
	if !histcheck.Check(events).Has(histcheck.GSingle) {
		t.Error("written witness lost the anomaly")
	}

	out.Reset()
	errw.Reset()
	cert := filepath.Join(dir, "cert.json")
	if code := run([]string{"-workload", "lost-update", "-level", "SERIALIZABLE", "-budget", "10", "-o", cert}, &out, &errw); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "no anomaly") {
		t.Errorf("summary missing certificate: %s", out.String())
	}
	raw, err := os.ReadFile(cert)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"verdict": "no-anomaly"`) {
		t.Errorf("certificate malformed: %s", raw)
	}

	out.Reset()
	errw.Reset()
	if code := run(nil, &out, &errw); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := run([]string{"-workload", "nope"}, &out, &errw); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
	if code := run([]string{"-workload", "lost-update", "-level", "NOPE"}, &out, &errw); code != 2 {
		t.Errorf("unknown level: exit %d, want 2", code)
	}

	out.Reset()
	if code := run([]string{"-list"}, &out, &errw); code != 0 || !strings.Contains(out.String(), "lost-update") {
		t.Errorf("-list: exit %d out %q", code, out.String())
	}
}
