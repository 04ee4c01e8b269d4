package storage

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// feralUniqueInsert performs the ActiveRecord uniqueness-validation protocol
// from Appendix B.1 against the raw engine: SELECT ... WHERE key = k LIMIT 1,
// and if absent, INSERT. Returns (inserted, commitErr).
func feralUniqueInsert(db *Database, level IsolationLevel, key string, barrier *sync.WaitGroup) (bool, error) {
	tx := db.Begin(level)
	exists := false
	err := tx.Scan("kv", ScanOptions{Filter: &EqFilter{Column: "key", Value: Str(key)}},
		func(RowID, []Value) bool { exists = true; return false })
	if err != nil {
		tx.Rollback()
		return false, err
	}
	if barrier != nil {
		// Rendezvous: both transactions finish validating before either
		// inserts, making the race deterministic in tests.
		barrier.Done()
		barrier.Wait()
	}
	if exists {
		tx.Rollback()
		return false, nil
	}
	if _, _, err := tx.Insert("kv", map[string]Value{"key": Str(key), "value": Str("v")}); err != nil {
		tx.Rollback()
		return false, err
	}
	if err := tx.Commit(); err != nil {
		return false, err
	}
	return true, nil
}

// runUniquenessRace runs two feral unique inserts of the same key that both
// pass validation before either commits, and returns the number of committed
// duplicates (0 or 1 extra row beyond the first).
func runUniquenessRace(t *testing.T, db *Database, level IsolationLevel) int {
	t.Helper()
	var barrier sync.WaitGroup
	barrier.Add(2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			defer wg.Done()
			_, errs[i] = feralUniqueInsert(db, level, "racekey", &barrier)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && !errors.Is(err, ErrSerialization) && !errors.Is(err, ErrUniqueViolation) && !errors.Is(err, ErrLockTimeout) {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	return countRows(t, db, "kv", &EqFilter{Column: "key", Value: Str("racekey")}) - 1
}

func TestFeralUniquenessRaceByIsolation(t *testing.T) {
	// The paper's Section 5.1 claim, as an executable table: feral uniqueness
	// validation admits duplicates under RC, RR, and SI, and is safe only
	// under (correct) serializable execution.
	cases := []struct {
		level      IsolationLevel
		duplicates bool
	}{
		{ReadCommitted, true},
		{RepeatableRead, true},
		{SnapshotIsolation, true},
		{Serializable, false},
		{Serializable2PL, false},
	}
	for _, c := range cases {
		t.Run(c.level.String(), func(t *testing.T) {
			db := testDB(t, Options{})
			mustCreate(t, db, kvSchema("kv"))
			dups := runUniquenessRace(t, db, c.level)
			if c.duplicates && dups != 1 {
				t.Errorf("%v: expected the race to admit a duplicate, got %d", c.level, dups)
			}
			// Under 2PL the symmetric race can deadlock and abort both
			// sides (dups == -1): zero rows is still zero duplicates; a
			// retry then succeeds.
			if !c.duplicates && dups > 0 {
				t.Errorf("%v: expected no duplicates, got %d", c.level, dups)
			}
			if !c.duplicates && dups < 0 {
				if ok, err := feralUniqueInsert(db, c.level, "racekey", nil); err != nil || !ok {
					t.Errorf("%v: retry after aborted race failed: %v", c.level, err)
				}
			}
		})
	}
}

func TestSSIPhantomBugReproducesDuplicates(t *testing.T) {
	// PostgreSQL bug #11732: duplicates under nominally serializable
	// isolation. With PhantomBug set, predicate reads are not certified and
	// the feral validation race slips through even at Serializable.
	db := testDB(t, Options{PhantomBug: true})
	mustCreate(t, db, kvSchema("kv"))
	if dups := runUniquenessRace(t, db, Serializable); dups != 1 {
		t.Fatalf("phantom-bug mode should admit the duplicate, got %d", dups)
	}
}

func TestSerializableCertificationRowConflict(t *testing.T) {
	// Write skew on two rows: T1 reads x writes y, T2 reads y writes x.
	// Both commit under SI; at least one must abort under Serializable.
	run := func(level IsolationLevel) (aborts int) {
		db := testDB(t, Options{})
		mustCreate(t, db, kvSchema("kv"))
		xID := insertKV(t, db, "kv", "x", "on")
		yID := insertKV(t, db, "kv", "y", "on")

		t1 := db.Begin(level)
		t2 := db.Begin(level)
		// T1 reads x; T2 reads y.
		if _, err := t1.Get("kv", xID); err != nil {
			t.Fatal(err)
		}
		if _, err := t2.Get("kv", yID); err != nil {
			t.Fatal(err)
		}
		// T1 writes y; T2 writes x.
		if err := t1.Update("kv", yID, map[string]Value{"value": Str("off")}); err != nil {
			t.Fatal(err)
		}
		if err := t2.Update("kv", xID, map[string]Value{"value": Str("off")}); err != nil {
			t.Fatal(err)
		}
		if err := t1.Commit(); errors.Is(err, ErrSerialization) {
			aborts++
		} else if err != nil {
			t.Fatal(err)
		}
		if err := t2.Commit(); errors.Is(err, ErrSerialization) {
			aborts++
		} else if err != nil {
			t.Fatal(err)
		}
		return aborts
	}
	if aborts := run(SnapshotIsolation); aborts != 0 {
		t.Errorf("SI should permit write skew, got %d aborts", aborts)
	}
	if aborts := run(Serializable); aborts == 0 {
		t.Error("Serializable must abort at least one write-skew transaction")
	}
}

func TestLostUpdateByIsolation(t *testing.T) {
	// Classic Lost Update (the Spree set_count_on_hand hazard, Section 3.2):
	// both transactions read balance=100, both write read-10.
	run := func(level IsolationLevel) (finalBalance int64, serErrs int) {
		db := testDB(t, Options{LockTimeout: 200 * time.Millisecond})
		mustCreate(t, db, &Schema{Name: "stock", Columns: []Column{
			{Name: "id", Kind: KindInt, PrimaryKey: true},
			{Name: "count", Kind: KindInt},
		}})
		tx := db.BeginDefault()
		id, _, _ := tx.Insert("stock", map[string]Value{"count": Int(100)})
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}

		t1 := db.Begin(level)
		t2 := db.Begin(level)
		v1, _ := t1.Get("stock", id)
		v2, _ := t2.Get("stock", id)
		_ = t1.Update("stock", id, map[string]Value{"count": Int(v1[1].I - 10)})
		if err := t1.Commit(); err != nil {
			t.Fatal(err)
		}
		err2 := t2.Update("stock", id, map[string]Value{"count": Int(v2[1].I - 10)})
		if err2 == nil {
			err2 = t2.Commit()
		} else {
			t2.Rollback()
		}
		if errors.Is(err2, ErrSerialization) || errors.Is(err2, ErrLockTimeout) {
			serErrs++
		} else if err2 != nil {
			t.Fatal(err2)
		}
		rtx := db.BeginDefault()
		defer rtx.Rollback()
		vals, _ := rtx.Get("stock", id)
		return vals[1].I, serErrs
	}
	if bal, _ := run(ReadCommitted); bal != 90 {
		t.Errorf("RC should lose an update (90), got %d", bal)
	}
	bal, serErrs := run(SnapshotIsolation)
	if serErrs != 1 || bal != 90 {
		t.Errorf("SI first-committer-wins should abort the second writer: bal=%d aborts=%d", bal, serErrs)
	}
}

func TestSelectForUpdateSerializesReadModifyWrite(t *testing.T) {
	// The pessimistic-lock path (Spree adjust_count_on_hand): FOR UPDATE
	// read-modify-write never loses updates, even at Read Committed.
	db := testDB(t, Options{LockTimeout: 5 * time.Second})
	mustCreate(t, db, &Schema{Name: "stock", Columns: []Column{
		{Name: "id", Kind: KindInt, PrimaryKey: true},
		{Name: "count", Kind: KindInt},
	}})
	tx := db.BeginDefault()
	id, _, _ := tx.Insert("stock", map[string]Value{"count": Int(0)})
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	const workers, rounds = 8, 20
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for {
					tx := db.Begin(ReadCommitted)
					var cur int64
					found := false
					err := tx.Scan("stock", ScanOptions{
						Filter:    &EqFilter{Column: "id", Value: Int(int64(id))},
						ForUpdate: true,
					}, func(_ RowID, vals []Value) bool {
						cur = vals[1].I
						found = true
						return false
					})
					if err != nil || !found {
						tx.Rollback()
						continue
					}
					if err := tx.Update("stock", id, map[string]Value{"count": Int(cur + 1)}); err != nil {
						tx.Rollback()
						continue
					}
					if err := tx.Commit(); err == nil {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	rtx := db.BeginDefault()
	defer rtx.Rollback()
	vals, _ := rtx.Get("stock", id)
	if vals[1].I != workers*rounds {
		t.Fatalf("FOR UPDATE counter = %d, want %d", vals[1].I, workers*rounds)
	}
}

func TestForUpdateRereadsLatestAfterWait(t *testing.T) {
	db := testDB(t, Options{LockTimeout: 2 * time.Second})
	mustCreate(t, db, kvSchema("kv"))
	id := insertKV(t, db, "kv", "a", "1")

	t1 := db.Begin(ReadCommitted)
	var got string
	err := t1.Scan("kv", ScanOptions{Filter: &EqFilter{Column: "key", Value: Str("a")}, ForUpdate: true},
		func(_ RowID, vals []Value) bool { got = vals[2].S; return false })
	if err != nil || got != "1" {
		t.Fatalf("first lock: %q %v", got, err)
	}

	done := make(chan string, 1)
	go func() {
		t2 := db.Begin(ReadCommitted)
		defer t2.Rollback()
		var v string
		_ = t2.Scan("kv", ScanOptions{Filter: &EqFilter{Column: "key", Value: Str("a")}, ForUpdate: true},
			func(_ RowID, vals []Value) bool { v = vals[2].S; return false })
		done <- v
	}()
	time.Sleep(30 * time.Millisecond)
	if err := t1.Update("kv", id, map[string]Value{"value": Str("2")}); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if v := <-done; v != "2" {
		t.Fatalf("waiter read stale value %q after lock wait, want re-read of 2", v)
	}
}

func TestReadCommittedSeesNewCommitsMidTransaction(t *testing.T) {
	db := testDB(t, Options{})
	mustCreate(t, db, kvSchema("kv"))
	reader := db.Begin(ReadCommitted)
	if n := scanCount(reader, "kv", nil); n != 0 {
		t.Fatal("phantom before any commit")
	}
	insertKV(t, db, "kv", "new", "v")
	if n := scanCount(reader, "kv", nil); n != 1 {
		t.Fatalf("RC reader should see the new commit, saw %d", n)
	}
	reader.Rollback()

	snap := db.Begin(RepeatableRead)
	if n := scanCount(snap, "kv", nil); n != 1 {
		t.Fatal("snapshot baseline wrong")
	}
	insertKV(t, db, "kv", "newer", "v")
	if n := scanCount(snap, "kv", nil); n != 1 {
		t.Fatalf("RR reader must not see post-snapshot commits, saw %d", n)
	}
	snap.Rollback()
}

func scanCount(tx *Tx, table string, f *EqFilter) int {
	n := 0
	_ = tx.Scan(table, ScanOptions{Filter: f}, func(RowID, []Value) bool { n++; return true })
	return n
}

func TestSerializable2PLBlocksConflictingInsert(t *testing.T) {
	// Under 2PL, a predicate read takes a shared lock that a conflicting
	// insert must wait on: the second transaction's insert times out rather
	// than creating a phantom.
	db := testDB(t, Options{LockTimeout: 100 * time.Millisecond})
	mustCreate(t, db, kvSchema("kv"))

	t1 := db.Begin(Serializable2PL)
	if n := scanCount(t1, "kv", &EqFilter{Column: "key", Value: Str("k")}); n != 0 {
		t.Fatal("unexpected row")
	}
	t2 := db.Begin(Serializable2PL)
	_, _, err := t2.Insert("kv", map[string]Value{"key": Str("k")})
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("conflicting insert should block then time out, got %v", err)
	}
	t2.Rollback()
	// After t1 finishes, the insert proceeds.
	t1.Rollback()
	t3 := db.Begin(Serializable2PL)
	if _, _, err := t3.Insert("kv", map[string]Value{"key": Str("k")}); err != nil {
		t.Fatalf("insert after release: %v", err)
	}
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestSerializable2PLGetTakesSharedLock(t *testing.T) {
	// A 2PL point read must take a shared row lock, exactly as scans do.
	// Without it, a Get-then-Update read-modify-write bypasses the lock
	// protocol and loses updates even at the engine's strongest level — a gap
	// the deterministic scheduler found on its first directed schedule.
	db := testDB(t, Options{LockTimeout: 100 * time.Millisecond})
	mustCreate(t, db, kvSchema("kv"))
	id := insertKV(t, db, "kv", "a", "1")

	t1 := db.Begin(Serializable2PL)
	if _, err := t1.Get("kv", id); err != nil {
		t.Fatal(err)
	}
	if !db.locks.Holds(t1.id, rowLockKey("kv", id), LockS) {
		t.Fatal("2PL Get left the row unlocked")
	}
	// The shared lock must block a concurrent writer until t1 finishes.
	t2 := db.Begin(Serializable2PL)
	if err := t2.Update("kv", id, map[string]Value{"value": Str("2")}); !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("write against a read-locked row should time out, got %v", err)
	}
	t2.Rollback()
	t1.Rollback()
	t3 := db.Begin(Serializable2PL)
	if err := t3.Update("kv", id, map[string]Value{"value": Str("2")}); err != nil {
		t.Fatalf("update after release: %v", err)
	}
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotDeleteConflict(t *testing.T) {
	// First-committer-wins also applies to deletes racing updates.
	db := testDB(t, Options{})
	mustCreate(t, db, kvSchema("kv"))
	id := insertKV(t, db, "kv", "a", "1")
	t1 := db.Begin(SnapshotIsolation)
	t2 := db.Begin(SnapshotIsolation)
	if err := t1.Delete("kv", id); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	err := t2.Update("kv", id, map[string]Value{"value": Str("2")})
	if err == nil {
		err = t2.Commit()
	} else {
		t2.Rollback()
	}
	if !errors.Is(err, ErrSerialization) && !errors.Is(err, ErrNoSuchRow) {
		t.Fatalf("update racing committed delete should fail, got %v", err)
	}
}

func TestConcurrentDisjointWritersAllCommit(t *testing.T) {
	// Sanity: disjoint inserts at Serializable do not false-positive abort.
	db := testDB(t, Options{})
	mustCreate(t, db, kvSchema("kv"))
	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			tx := db.Begin(Serializable)
			_, _, err := tx.Insert("kv", map[string]Value{"key": Str(string(rune('a' + i)))})
			if err == nil {
				err = tx.Commit()
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	if got := countRows(t, db, "kv", nil); got != n {
		t.Fatalf("rows = %d, want %d", got, n)
	}
}
