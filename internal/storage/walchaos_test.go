// Crash-chaos suites for the durability layer. These live in an external test
// package because internal/faultinject imports internal/storage: the injector
// arms the WAL fault points through the public Options.FaultHook seam only.
//
// The crash model is in-process: a "kill" abandons a *storage.Database
// without Close (no background writers exist under SyncAlways/SyncOff, so the
// file is exactly what the engine had written when the process would have
// died), then reopens the same directory. The torn-write corpus goes further
// and edits the log bytes directly, simulating the disk absorbing only part
// of the final sector.
package storage_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"feralcc/internal/faultinject"
	"feralcc/internal/histcheck"
	"feralcc/internal/storage"
)

// chaosSeeds are the fixed replay seeds every suite here derives from.
var chaosSeeds = []int64{2015, 7, 23}

func chaosSchema() (*storage.Schema, *storage.Schema) {
	orgs := &storage.Schema{
		Name: "orgs",
		Columns: []storage.Column{
			{Name: "id", Kind: storage.KindInt, PrimaryKey: true},
			{Name: "name", Kind: storage.KindString, NotNull: true},
		},
	}
	users := &storage.Schema{
		Name: "users",
		Columns: []storage.Column{
			{Name: "id", Kind: storage.KindInt, PrimaryKey: true},
			{Name: "email", Kind: storage.KindString},
			{Name: "org_id", Kind: storage.KindInt},
		},
		Indexes: []storage.IndexSpec{{Column: "email", Unique: true, Name: "users_email_idx"}},
		ForeignKeys: []storage.ForeignKey{
			{Column: "org_id", ParentTable: "orgs", OnDelete: storage.Cascade, Name: "users_org_id_fkey"},
		},
	}
	return orgs, users
}

// dumpState renders schemas plus all live rows (sorted by row id, formatted
// values) through the public API. Equal dumps mean observably identical
// databases.
func dumpState(t testing.TB, db *storage.Database) string {
	t.Helper()
	var b strings.Builder
	for _, s := range db.Tables() {
		fmt.Fprintf(&b, "table %s cols=%d ix=%d fk=%d\n",
			s.Name, len(s.Columns), len(s.Indexes), len(s.ForeignKeys))
		tx := db.Begin(storage.ReadCommitted)
		type row struct {
			id   storage.RowID
			line string
		}
		var rows []row
		err := tx.Scan(s.Name, storage.ScanOptions{}, func(id storage.RowID, vals []storage.Value) bool {
			parts := make([]string, len(vals))
			for i, v := range vals {
				parts[i] = v.Format()
			}
			rows = append(rows, row{id, strings.Join(parts, "|")})
			return true
		})
		tx.Rollback()
		if err != nil {
			t.Fatalf("dump scan %s: %v", s.Name, err)
		}
		for i := 1; i < len(rows); i++ {
			for j := i; j > 0 && rows[j].id < rows[j-1].id; j-- {
				rows[j], rows[j-1] = rows[j-1], rows[j]
			}
		}
		for _, r := range rows {
			fmt.Fprintf(&b, "  %d: %s\n", r.id, r.line)
		}
	}
	return b.String()
}

func reopen(t *testing.T, dir string) *storage.Database {
	t.Helper()
	db, err := storage.OpenDir(storage.Options{DataDir: dir})
	if err != nil {
		t.Fatalf("reopen %s: %v", dir, err)
	}
	return db
}

func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("read dir: %v", err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatalf("read %s: %v", e.Name(), err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatalf("write %s: %v", e.Name(), err)
		}
	}
	return dst
}

func walPath(dir string) string { return filepath.Join(dir, "wal.log") }

// walLen is the log's length in dir, not the file's: the file may run on
// into zeroed space reserved ahead of the tail.
var walLen = storage.WALSize

// assertRecovered reopens dir, checks the state against want, verifies the
// constraint invariants, and proves a second recovery of the same directory
// is idempotent (the damaged tail was truncated by the first).
func assertRecovered(t *testing.T, dir, want, label string) {
	t.Helper()
	db := reopen(t, dir)
	if got := dumpState(t, db); got != want {
		t.Fatalf("%s: recovered state differs:\n%s\nwant:\n%s", label, got, want)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatalf("%s: integrity after recovery: %v", label, err)
	}
	db.Close()
	// The second recovery also runs with history recording on, so the
	// recovered state is additionally replayed through the offline isolation
	// checker (a read-only SERIALIZABLE pass must be anomaly-free).
	again, err := storage.OpenDir(storage.Options{DataDir: dir, RecordHistory: true})
	if err != nil {
		t.Fatalf("%s: reopen with history: %v", label, err)
	}
	st := again.Recovery()
	if st.TornTailBytes != 0 || st.CorruptTail {
		t.Fatalf("%s: second recovery still saw damage: %+v", label, st)
	}
	if got := dumpState(t, again); got != want {
		t.Fatalf("%s: second recovery diverged:\n%s\nwant:\n%s", label, got, want)
	}
	replayHistcheck(t, again, label)
	again.Close()
}

// replayHistcheck drives one read-only SERIALIZABLE transaction over every
// table of a history-recording database and requires the resulting history
// to check clean — the histcheck half of the post-recovery oracle, next to
// CheckIntegrity.
func replayHistcheck(t *testing.T, db *storage.Database, label string) {
	t.Helper()
	tx := db.Begin(storage.Serializable)
	for _, s := range db.Tables() {
		if err := tx.Scan(s.Name, storage.ScanOptions{}, func(storage.RowID, []storage.Value) bool { return true }); err != nil {
			t.Fatalf("%s: histcheck replay scan %s: %v", label, s.Name, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("%s: histcheck replay commit: %v", label, err)
	}
	rep := histcheck.Check(db.History())
	if !rep.Pass() || len(rep.Findings) != 0 {
		t.Fatalf("%s: histcheck over recovered state:\n%s", label, rep)
	}
}

// TestChaosTornWriteCorpus is the exhaustive torn-tail sweep: the log is cut
// at every byte boundary of its final record (and, separately, every byte of
// that record is flipped). Every prefix must recover to exactly the state
// before the final commit; the intact file recovers the final commit too.
func TestChaosTornWriteCorpus(t *testing.T) {
	ref := t.TempDir()
	db, err := storage.OpenDir(storage.Options{DataDir: ref})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	orgs, users := chaosSchema()
	if err := db.CreateTable(orgs); err != nil {
		t.Fatalf("create orgs: %v", err)
	}
	if err := db.CreateTable(users); err != nil {
		t.Fatalf("create users: %v", err)
	}
	tx := db.Begin(storage.ReadCommitted)
	if _, _, err := tx.Insert("orgs", map[string]storage.Value{"id": storage.Int(1), "name": storage.Str("acme")}); err != nil {
		t.Fatalf("insert org: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit org: %v", err)
	}
	for i := 0; i < 3; i++ {
		tx := db.Begin(storage.ReadCommitted)
		if _, _, err := tx.Insert("users", map[string]storage.Value{
			"email": storage.Str(fmt.Sprintf("u%d@acme.test", i)), "org_id": storage.Int(1)}); err != nil {
			t.Fatalf("insert user: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit user: %v", err)
		}
	}
	prevSize := walLen(t, ref)
	prevDump := dumpState(t, db)
	// The final record: one commit inserting a fourth user.
	tx = db.Begin(storage.ReadCommitted)
	if _, _, err := tx.Insert("users", map[string]storage.Value{
		"email": storage.Str("last@acme.test"), "org_id": storage.Int(1)}); err != nil {
		t.Fatalf("insert last: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit last: %v", err)
	}
	fullSize := walLen(t, ref)
	fullDump := dumpState(t, db)
	db.Close()
	if fullSize <= prevSize {
		t.Fatalf("final commit did not grow the log: %d -> %d", prevSize, fullSize)
	}

	// Truncation sweep: every strict prefix of the final record loses exactly
	// that commit; the complete file keeps it.
	for cut := prevSize; cut <= fullSize; cut++ {
		dir := copyDir(t, ref)
		if err := os.Truncate(walPath(dir), cut); err != nil {
			t.Fatalf("truncate: %v", err)
		}
		want := prevDump
		if cut == fullSize {
			want = fullDump
		}
		assertRecovered(t, dir, want, fmt.Sprintf("truncate@%d", cut))
	}

	// Corruption sweep: flipping any single byte of the final record (header
	// or payload) must discard that commit, never resurrect garbage.
	raw, err := os.ReadFile(walPath(ref))
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	for pos := prevSize; pos < fullSize; pos++ {
		dir := copyDir(t, ref)
		bad := append([]byte(nil), raw...)
		bad[pos] ^= 0xa5
		if err := os.WriteFile(walPath(dir), bad, 0o644); err != nil {
			t.Fatalf("write corrupted wal: %v", err)
		}
		assertRecovered(t, dir, prevDump, fmt.Sprintf("flip@%d", pos))
	}
}

// TestChaosKillAndReopenAtWALFaultPoints drives a mirrored workload against a
// durable database with seeded faults armed at the append and fsync points,
// and an in-memory shadow that commits only what the durable side
// acknowledged. After an abandon-and-reopen, the recovered state must match
// the shadow exactly: every acknowledged commit present, every aborted one
// absent.
func TestChaosKillAndReopenAtWALFaultPoints(t *testing.T) {
	for _, seed := range chaosSeeds {
		for _, pt := range []string{faultinject.PointWALAppend, faultinject.PointWALFsync} {
			t.Run(fmt.Sprintf("seed%d/%s", seed, pt), func(t *testing.T) {
				inj := faultinject.New(seed)
				inj.Arm(pt, faultinject.Rule{Kind: faultinject.KindError, Rate: 0.35})
				dir := t.TempDir()
				db, err := storage.OpenDir(storage.Options{DataDir: dir, FaultHook: inj.EngineHook()})
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				shadow, err := storage.OpenDir(storage.Options{})
				if err != nil {
					t.Fatalf("open shadow: %v", err)
				}

				orgsD, usersD := chaosSchema()
				orgsS, usersS := chaosSchema()
				// DDL can also draw faults; retry until both sides agree.
				createBoth := func(d, s *storage.Schema) {
					for attempt := 0; ; attempt++ {
						err := db.CreateTable(d)
						if err == nil {
							break
						}
						if !errors.Is(err, faultinject.ErrInjected) || attempt > 100 {
							t.Fatalf("durable create %s: %v", d.Name, err)
						}
					}
					if err := shadow.CreateTable(s); err != nil {
						t.Fatalf("shadow create: %v", err)
					}
				}
				createBoth(orgsD, orgsS)
				createBoth(usersD, usersS)

				// mirror runs one insert attempt on both sides, committing the
				// shadow only when the durable side acknowledged. Reports
				// whether the commit was acknowledged.
				mirror := func(cols map[string]storage.Value, table string) bool {
					dtx := db.Begin(storage.ReadCommitted)
					stx := shadow.Begin(storage.ReadCommitted)
					if _, _, err := dtx.Insert(table, cols); err != nil {
						t.Fatalf("durable insert: %v", err)
					}
					if _, _, err := stx.Insert(table, cols); err != nil {
						t.Fatalf("shadow insert: %v", err)
					}
					if err := dtx.Commit(); err != nil {
						if !errors.Is(err, faultinject.ErrInjected) {
							t.Fatalf("unexpected durable commit error: %v", err)
						}
						stx.Rollback()
						return false
					}
					if err := stx.Commit(); err != nil {
						t.Fatalf("shadow commit: %v", err)
					}
					return true
				}
				// The parent row must land (users reference it), so its
				// mirrored attempt retries until acknowledged.
				for attempt := 0; ; attempt++ {
					if mirror(map[string]storage.Value{"id": storage.Int(1), "name": storage.Str("acme")}, "orgs") {
						break
					}
					if attempt > 100 {
						t.Fatal("org insert never survived injection")
					}
				}
				for i := 0; i < 40; i++ {
					mirror(map[string]storage.Value{
						"email":  storage.Str(fmt.Sprintf("u%d@acme.test", i)),
						"org_id": storage.Int(1),
					}, "users")
				}
				fired := false
				for _, st := range inj.Stats() {
					for _, n := range st.Fires {
						fired = fired || n > 0
					}
				}
				if !fired {
					t.Fatalf("seed %d armed %s but nothing fired; raise the rate", seed, pt)
				}
				want := dumpState(t, shadow)
				// Kill: abandon db without Close and reopen the directory.
				assertRecovered(t, dir, want, "post-crash")
			})
		}
	}
}

// TestChaosCheckpointFaults: an injected checkpoint failure must leave the
// log authoritative — nothing truncated, nothing lost — and a later clean
// checkpoint recovers the space.
func TestChaosCheckpointFaults(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			inj := faultinject.New(seed)
			inj.Arm(faultinject.PointWALCheckpoint,
				faultinject.Rule{Kind: faultinject.KindError, Rate: 1, Limit: 2})
			dir := t.TempDir()
			db, err := storage.OpenDir(storage.Options{DataDir: dir, FaultHook: inj.EngineHook()})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			orgs, _ := chaosSchema()
			if err := db.CreateTable(orgs); err != nil {
				t.Fatalf("create: %v", err)
			}
			tx := db.Begin(storage.ReadCommitted)
			if _, _, err := tx.Insert("orgs", map[string]storage.Value{"id": storage.Int(1), "name": storage.Str("acme")}); err != nil {
				t.Fatalf("insert: %v", err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatalf("commit: %v", err)
			}
			before := walLen(t, dir)
			for i := 0; i < 2; i++ {
				if _, err := db.Checkpoint(); !errors.Is(err, faultinject.ErrInjected) {
					t.Fatalf("checkpoint %d: %v (want injected)", i, err)
				}
				if got := walLen(t, dir); got != before {
					t.Fatalf("failed checkpoint moved the log: %d -> %d", before, got)
				}
			}
			want := dumpState(t, db)
			// Limit exhausted: the third attempt succeeds and truncates.
			if _, err := db.Checkpoint(); err != nil {
				t.Fatalf("clean checkpoint: %v", err)
			}
			if got := walLen(t, dir); got != 0 {
				t.Fatalf("wal not truncated after clean checkpoint: %d", got)
			}
			db.Close()
			assertRecovered(t, dir, want, "post-checkpoint")
		})
	}
}

// TestChaosRecoveryFaults: killing recovery itself (at open, or mid-replay)
// must be harmless — the next clean open replays everything.
func TestChaosRecoveryFaults(t *testing.T) {
	dir := t.TempDir()
	db, err := storage.OpenDir(storage.Options{DataDir: dir})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	orgs, users := chaosSchema()
	if err := db.CreateTable(orgs); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := db.CreateTable(users); err != nil {
		t.Fatalf("create: %v", err)
	}
	tx := db.Begin(storage.ReadCommitted)
	if _, _, err := tx.Insert("orgs", map[string]storage.Value{"id": storage.Int(1), "name": storage.Str("acme")}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	want := dumpState(t, db)
	db.Close()

	for _, seed := range chaosSeeds {
		// The recover point fires once at open and again before each record;
		// a limited full-rate rule dies at a different replay depth per limit.
		for limit := uint64(1); limit <= 3; limit++ {
			inj := faultinject.New(seed)
			inj.Arm(faultinject.PointWALRecover,
				faultinject.Rule{Kind: faultinject.KindError, Rate: 1, Limit: limit})
			_, err := storage.OpenDir(storage.Options{DataDir: dir, FaultHook: inj.EngineHook()})
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("seed %d limit %d: open = %v, want injected failure", seed, limit, err)
			}
		}
	}
	assertRecovered(t, dir, want, "after aborted recoveries")
}

// TestChaosConcurrentCommitsSurviveCrash hammers a unique index from many
// goroutines, crashes, and verifies the recovered database holds exactly one
// row per acknowledged commit — the durable analog of the paper's Figure 2
// uniqueness experiment.
func TestChaosConcurrentCommitsSurviveCrash(t *testing.T) {
	dir := t.TempDir()
	db, err := storage.OpenDir(storage.Options{
		DataDir:    dir,
		SyncPolicy: storage.SyncOff, // process-kill model: no fsync needed
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	orgs, users := chaosSchema()
	if err := db.CreateTable(orgs); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := db.CreateTable(users); err != nil {
		t.Fatalf("create: %v", err)
	}
	tx := db.Begin(storage.ReadCommitted)
	if _, _, err := tx.Insert("orgs", map[string]storage.Value{"id": storage.Int(1), "name": storage.Str("acme")}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}

	const workers, perWorker = 8, 25
	var mu sync.Mutex
	acked := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Two workers contend on each email; the unique index must
				// admit exactly one of every contending pair.
				email := fmt.Sprintf("u%d-%d@acme.test", w/2, i)
				tx := db.Begin(storage.SnapshotIsolation)
				if _, _, err := tx.Insert("users", map[string]storage.Value{
					"email": storage.Str(email), "org_id": storage.Int(1)}); err != nil {
					tx.Rollback()
					continue
				}
				if err := tx.Commit(); err == nil {
					mu.Lock()
					acked++
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	// Crash: abandon without Close. SyncOff never fsyncs, but every
	// acknowledged commit's record was written to the file before the ack.
	re := reopen(t, dir)
	defer re.Close()
	got := 0
	rtx := re.Begin(storage.ReadCommitted)
	if err := rtx.Scan("users", storage.ScanOptions{}, func(storage.RowID, []storage.Value) bool {
		got++
		return true
	}); err != nil {
		t.Fatalf("scan: %v", err)
	}
	rtx.Rollback()
	if got != acked {
		t.Fatalf("recovered %d users, acknowledged %d", got, acked)
	}
	if got != workers/2*perWorker {
		t.Fatalf("unique index admitted %d of %d contending pairs", got, workers/2*perWorker)
	}
	if err := re.CheckIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
}
