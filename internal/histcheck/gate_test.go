// gate_test drives the storage engine through seeded anomaly shapes and
// concurrent workloads at every isolation level and gates the recorded
// histories through the checker. `make check` runs them with everything
// else; the test names all start with TestGate so `make gates` can select
// exactly this file and print its witnesses under -v.
//
// The assertions are the engine's isolation contract, stated in Adya's
// vocabulary: weak levels admit exactly the anomaly classes they document
// (G-single at READ COMMITTED / REPEATABLE READ, G2-item additionally at
// SNAPSHOT ISOLATION) and the serializable levels admit none. The logged
// cycle witnesses are the artifact reviewers read when a gate trips.
package histcheck_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"feralcc/internal/histcheck"
	"feralcc/internal/storage"
)

// gateDB opens an in-memory engine with history recording on and a short
// lock timeout so 2PL conflicts resolve in test time.
func gateDB(t *testing.T, level storage.IsolationLevel) *storage.Database {
	t.Helper()
	db := storage.Open(storage.Options{
		DefaultIsolation: level,
		RecordHistory:    true,
		LockTimeout:      150 * time.Millisecond,
	})
	if err := db.CreateTable(&storage.Schema{
		Name: "kv",
		Columns: []storage.Column{
			{Name: "id", Kind: storage.KindInt, PrimaryKey: true},
			{Name: "key", Kind: storage.KindString},
			{Name: "value", Kind: storage.KindString},
		},
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

func gateInsert(t *testing.T, db *storage.Database, key, value string) storage.RowID {
	t.Helper()
	tx := db.BeginDefault()
	id, _, err := tx.Insert("kv", map[string]storage.Value{
		"key": storage.Str(key), "value": storage.Str(value),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return id
}

// scanRead reads one row through Scan, which (unlike Get) acquires shared
// locks under the locking levels — the read path a 2PL gate must exercise.
func scanRead(tx *storage.Tx, id storage.RowID) (string, error) {
	var out string
	err := tx.Scan("kv", storage.ScanOptions{
		Filter: &storage.EqFilter{Column: "id", Value: storage.Int(int64(id))},
	}, func(_ storage.RowID, vals []storage.Value) bool {
		out = vals[2].S
		return false
	})
	return out, err
}

func update(tx *storage.Tx, id storage.RowID, value string) error {
	return tx.Update("kv", id, map[string]storage.Value{"value": storage.Str(value)})
}

// witnessFor returns the first witness recorded for the anomaly class.
func witnessFor(rep *histcheck.Report, a histcheck.Anomaly) string {
	for _, f := range rep.Findings {
		if f.Anomaly == a {
			return f.Witness
		}
	}
	return ""
}

// TestGateLostUpdateAdmittedAtWeakLevels seeds the canonical lost-update
// interleaving and requires the checker to produce a G-single cycle witness
// at the levels that admit it.
func TestGateLostUpdateAdmittedAtWeakLevels(t *testing.T) {
	for _, level := range []storage.IsolationLevel{storage.ReadCommitted, storage.RepeatableRead} {
		t.Run(level.String(), func(t *testing.T) {
			db := gateDB(t, level)
			defer db.Close()
			id := gateInsert(t, db, "a", "v0")

			t1, t2 := db.BeginDefault(), db.BeginDefault()
			if _, err := scanRead(t1, id); err != nil {
				t.Fatal(err)
			}
			if _, err := scanRead(t2, id); err != nil {
				t.Fatal(err)
			}
			if err := update(t2, id, "t2"); err != nil {
				t.Fatal(err)
			}
			if err := t2.Commit(); err != nil {
				t.Fatal(err)
			}
			if err := update(t1, id, "t1"); err != nil {
				t.Fatal(err)
			}
			if err := t1.Commit(); err != nil {
				t.Fatalf("%v should admit the blind overwrite: %v", level, err)
			}

			rep := histcheck.Check(db.History())
			t.Logf("G-single gate report at %v:\n%s", level, rep)
			if !rep.Has(histcheck.GSingle) {
				t.Fatalf("lost update must classify as G-single:\n%s", rep)
			}
			if !rep.Pass() {
				t.Fatalf("G-single is admitted at %v:\n%s", level, rep)
			}
			w := witnessFor(rep, histcheck.GSingle)
			if !strings.Contains(w, "--rw[") || !strings.Contains(w, "-->") {
				t.Fatalf("G-single witness must show the rw cycle, got %q", w)
			}
		})
	}
}

// TestGateLostUpdatePreventedAtStrongLevels runs the same interleaving where
// first-committer-wins (SI, SSI) or shared locks (2PL) must stop it, leaving
// a history with no G-single at all.
func TestGateLostUpdatePreventedAtStrongLevels(t *testing.T) {
	for _, level := range []storage.IsolationLevel{
		storage.SnapshotIsolation, storage.Serializable, storage.Serializable2PL,
	} {
		t.Run(level.String(), func(t *testing.T) {
			db := gateDB(t, level)
			defer db.Close()
			id := gateInsert(t, db, "a", "v0")

			t1, t2 := db.BeginDefault(), db.BeginDefault()
			if _, err := scanRead(t1, id); err != nil {
				t.Fatal(err)
			}
			if _, err := scanRead(t2, id); err != nil {
				t.Fatal(err)
			}
			// Under FCW one of the writers aborts at commit; under 2PL the
			// X-upgrade against the other side's S lock times out. Either
			// way at most one write survives.
			var failures int
			if err := update(t2, id, "t2"); err != nil {
				failures++
				t2.Rollback()
			} else if err := t2.Commit(); err != nil {
				failures++
			}
			if err := update(t1, id, "t1"); err != nil {
				failures++
				t1.Rollback()
			} else if err := t1.Commit(); err != nil {
				failures++
			}
			if failures == 0 {
				t.Fatalf("%v must prevent the lost update", level)
			}

			rep := histcheck.Check(db.History())
			t.Logf("report at %v:\n%s", level, rep)
			if rep.Has(histcheck.GSingle) {
				t.Fatalf("%v must not exhibit G-single:\n%s", level, rep)
			}
			if !rep.Pass() {
				t.Fatalf("prevented conflict must leave a passing history:\n%s", rep)
			}
		})
	}
}

// TestGateWriteSkewWitnessAtSnapshotIsolation seeds the canonical write-skew
// shape (crossed reads, disjoint writes) and requires a G2-item witness with
// both anti-dependency edges at SI — and a clean history once serializable
// certification is on.
func TestGateWriteSkewWitnessAtSnapshotIsolation(t *testing.T) {
	db := gateDB(t, storage.SnapshotIsolation)
	defer db.Close()
	x := gateInsert(t, db, "x", "on")
	y := gateInsert(t, db, "y", "on")

	t1, t2 := db.BeginDefault(), db.BeginDefault()
	if _, err := scanRead(t1, x); err != nil {
		t.Fatal(err)
	}
	if _, err := scanRead(t2, y); err != nil {
		t.Fatal(err)
	}
	if err := update(t1, y, "off"); err != nil {
		t.Fatal(err)
	}
	if err := update(t2, x, "off"); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}

	rep := histcheck.Check(db.History())
	t.Logf("G2-item gate report at SNAPSHOT ISOLATION:\n%s", rep)
	if !rep.Has(histcheck.G2Item) {
		t.Fatalf("write skew must classify as G2-item:\n%s", rep)
	}
	if rep.Has(histcheck.GSingle) {
		t.Fatalf("write skew must not be mistaken for G-single:\n%s", rep)
	}
	if !rep.Pass() {
		t.Fatalf("G2-item is admitted at SNAPSHOT ISOLATION:\n%s", rep)
	}
	w := witnessFor(rep, histcheck.G2Item)
	if strings.Count(w, "--rw[") < 2 {
		t.Fatalf("G2-item witness must show both anti-dependency edges, got %q", w)
	}
}

func TestGateWriteSkewPreventedAtSerializable(t *testing.T) {
	for _, level := range []storage.IsolationLevel{storage.Serializable, storage.Serializable2PL} {
		t.Run(level.String(), func(t *testing.T) {
			db := gateDB(t, level)
			defer db.Close()
			x := gateInsert(t, db, "x", "on")
			y := gateInsert(t, db, "y", "on")

			t1, t2 := db.BeginDefault(), db.BeginDefault()
			var failures int
			step := func(err error, tx *storage.Tx) bool {
				if err != nil {
					failures++
					tx.Rollback()
					return false
				}
				return true
			}
			_, err := scanRead(t1, x)
			ok1 := step(err, t1)
			_, err = scanRead(t2, y)
			ok2 := step(err, t2)
			if ok1 {
				ok1 = step(update(t1, y, "off"), t1)
			}
			if ok2 {
				ok2 = step(update(t2, x, "off"), t2)
			}
			if ok1 && t1.Commit() != nil {
				failures++
			}
			if ok2 && t2.Commit() != nil {
				failures++
			}
			if failures == 0 {
				t.Fatalf("%v must prevent write skew", level)
			}

			rep := histcheck.Check(db.History())
			t.Logf("report at %v:\n%s", level, rep)
			if len(rep.Findings) != 0 || !rep.Pass() {
				t.Fatalf("%v history must be anomaly-free:\n%s", level, rep)
			}
		})
	}
}

// TestGateSeededWorkloadAllLevels runs a fixed-seed concurrent read-modify-
// write workload at every isolation level and gates the resulting history:
// every level must pass against its own contract, and the classes each level
// proscribes must be absent regardless of how the scheduler interleaved the
// run. This is the soundness half of the gate — the engine never emits a
// history its advertised level forbids.
func TestGateSeededWorkloadAllLevels(t *testing.T) {
	const (
		seed    = 2015
		clients = 8
		ops     = 25
		rows    = 4
	)
	for _, level := range []storage.IsolationLevel{
		storage.ReadCommitted,
		storage.RepeatableRead,
		storage.SnapshotIsolation,
		storage.Serializable,
		storage.Serializable2PL,
	} {
		t.Run(level.String(), func(t *testing.T) {
			db := gateDB(t, level)
			defer db.Close()
			ids := make([]storage.RowID, rows)
			for i := range ids {
				ids[i] = gateInsert(t, db, fmt.Sprintf("r%d", i), "0")
			}

			var wg sync.WaitGroup
			wg.Add(clients)
			for c := 0; c < clients; c++ {
				go func(c int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed + int64(c)*7919))
					for op := 0; op < ops; op++ {
						id := ids[rng.Intn(rows)]
						tx := db.BeginDefault()
						if _, err := scanRead(tx, id); err != nil {
							tx.Rollback()
							continue
						}
						if err := update(tx, id, fmt.Sprintf("c%d-%d", c, op)); err != nil {
							tx.Rollback()
							continue
						}
						if err := tx.Commit(); err != nil &&
							!errors.Is(err, storage.ErrSerialization) &&
							!errors.Is(err, storage.ErrLockTimeout) {
							t.Errorf("unexpected commit error: %v", err)
						}
					}
				}(c)
			}
			wg.Wait()

			rep := histcheck.Check(db.History())
			t.Logf("seeded workload at %v: %d txs (%d committed, %d aborted), classes %v",
				level, rep.Transactions, rep.Committed, rep.Aborted, rep.Classes())
			if !rep.Pass() {
				t.Fatalf("engine emitted a history %v forbids:\n%s", level, rep)
			}
			// Structural anomalies are forbidden at every level.
			for _, a := range []histcheck.Anomaly{
				histcheck.G0, histcheck.G1a, histcheck.G1b, histcheck.G1c,
			} {
				if rep.Has(a) {
					t.Fatalf("%s must never appear (level %v):\n%s", a, level, rep)
				}
			}
			switch level {
			case storage.SnapshotIsolation:
				if rep.Has(histcheck.GSingle) {
					t.Fatalf("first-committer-wins must prevent G-single:\n%s", rep)
				}
			case storage.Serializable, storage.Serializable2PL:
				if len(rep.Findings) != 0 {
					t.Fatalf("serializable history must have no findings:\n%s", rep)
				}
			}
		})
	}
}
