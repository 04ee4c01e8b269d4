// Commit-storm suites for the staged commit pipeline. Deterministic anomaly
// shapes pin, per isolation level, exactly how the engine resolves each
// conflict — per-step outcomes, the commit/abort census, and the anomaly
// classes out of the offline checker — and a free-running storm of disjoint
// and overlapping write sets gates the commit path against each level's
// allowed-anomaly contract. Runs under -race in `make check`.
package storage_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"feralcc/internal/histcheck"
	"feralcc/internal/storage"
)

var stormLevels = []storage.IsolationLevel{
	storage.ReadCommitted,
	storage.RepeatableRead,
	storage.SnapshotIsolation,
	storage.Serializable,
	storage.Serializable2PL,
}

// stormDB opens a history-recording engine.
func stormDB(t *testing.T, level storage.IsolationLevel) *storage.Database {
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

func stormInsert(t *testing.T, db *storage.Database, key, value string) storage.RowID {
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

// stormRead reads one row through Scan, the path that takes shared locks
// under the 2PL level.
func stormRead(tx *storage.Tx, id storage.RowID) error {
	return tx.Scan("kv", storage.ScanOptions{
		Filter: &storage.EqFilter{Column: "id", Value: storage.Int(int64(id))},
	}, func(storage.RowID, []storage.Value) bool { return false })
}

func stormUpdate(tx *storage.Tx, id storage.RowID, value string) error {
	return tx.Update("kv", id, map[string]storage.Value{"value": storage.Str(value)})
}

// errClass folds an error into the vocabulary the shape expectations use.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, storage.ErrSerialization):
		return "serialization"
	case errors.Is(err, storage.ErrLockTimeout):
		return "locktimeout"
	default:
		return err.Error()
	}
}

// A stormShape drives one deterministic two-transaction interleaving and
// returns a step-outcome signature. Steps tolerate the level-specific
// failures (FCW aborts, certification aborts, lock timeouts) and record them
// instead, so the signature captures exactly how the level resolved the
// conflict.
type stormShape struct {
	name string
	run  func(t *testing.T, db *storage.Database) string
	// want is the pinned result at each isolation level: what executing the
	// shape's commits strictly one at a time produces, which the pipeline
	// must reproduce.
	want map[storage.IsolationLevel]stormResult
}

// stormResult is everything a shape run is compared on.
type stormResult struct {
	outcome string // per-step error classes
	commits string // commit/abort census from the checker
	classes string // anomaly classes from the checker
}

var stormShapes = []stormShape{
	{"lost-update", func(t *testing.T, db *storage.Database) string {
		id := stormInsert(t, db, "a", "v0")
		t1, t2 := db.BeginDefault(), db.BeginDefault()
		r1 := stormRead(t1, id)
		r2 := stormRead(t2, id)
		u2 := stormUpdate(t2, id, "t2")
		c2 := error(nil)
		if u2 == nil {
			c2 = t2.Commit()
		} else {
			t2.Rollback()
		}
		u1 := stormUpdate(t1, id, "t1")
		c1 := error(nil)
		if u1 == nil {
			c1 = t1.Commit()
		} else {
			t1.Rollback()
		}
		return fmt.Sprintf("r1=%s r2=%s u2=%s c2=%s u1=%s c1=%s",
			errClass(r1), errClass(r2), errClass(u2), errClass(c2), errClass(u1), errClass(c1))
	}, map[storage.IsolationLevel]stormResult{
		storage.ReadCommitted:     {"r1=ok r2=ok u2=ok c2=ok u1=ok c1=ok", "committed=3 aborted=0", "[G-single]"},
		storage.RepeatableRead:    {"r1=ok r2=ok u2=ok c2=ok u1=ok c1=ok", "committed=3 aborted=0", "[G-single]"},
		storage.SnapshotIsolation: {"r1=ok r2=ok u2=ok c2=ok u1=ok c1=serialization", "committed=2 aborted=1", "[]"},
		storage.Serializable:      {"r1=ok r2=ok u2=ok c2=ok u1=ok c1=serialization", "committed=2 aborted=1", "[]"},
		storage.Serializable2PL:   {"r1=ok r2=ok u2=locktimeout c2=ok u1=ok c1=ok", "committed=2 aborted=1", "[]"},
	}},
	{"write-skew", func(t *testing.T, db *storage.Database) string {
		x := stormInsert(t, db, "x", "on")
		y := stormInsert(t, db, "y", "on")
		t1, t2 := db.BeginDefault(), db.BeginDefault()
		r1 := stormRead(t1, x)
		r2 := stormRead(t2, y)
		u1 := stormUpdate(t1, y, "off")
		c1 := error(nil)
		if u1 == nil {
			c1 = t1.Commit()
		} else {
			t1.Rollback()
		}
		u2 := stormUpdate(t2, x, "off")
		c2 := error(nil)
		if u2 == nil {
			c2 = t2.Commit()
		} else {
			t2.Rollback()
		}
		return fmt.Sprintf("r1=%s r2=%s u1=%s c1=%s u2=%s c2=%s",
			errClass(r1), errClass(r2), errClass(u1), errClass(c1), errClass(u2), errClass(c2))
	}, map[storage.IsolationLevel]stormResult{
		storage.ReadCommitted:     {"r1=ok r2=ok u1=ok c1=ok u2=ok c2=ok", "committed=4 aborted=0", "[G2-item]"},
		storage.RepeatableRead:    {"r1=ok r2=ok u1=ok c1=ok u2=ok c2=ok", "committed=4 aborted=0", "[G2-item]"},
		storage.SnapshotIsolation: {"r1=ok r2=ok u1=ok c1=ok u2=ok c2=ok", "committed=4 aborted=0", "[G2-item]"},
		storage.Serializable:      {"r1=ok r2=ok u1=ok c1=ok u2=ok c2=serialization", "committed=3 aborted=1", "[]"},
		storage.Serializable2PL:   {"r1=ok r2=ok u1=locktimeout c1=ok u2=ok c2=ok", "committed=3 aborted=1", "[]"},
	}},
	{"phantom-insert", func(t *testing.T, db *storage.Database) string {
		// t1 predicate-reads an empty key range, t2 populates it and commits
		// first; serializable certification must see the phantom through the
		// predicate footprint.
		t1 := db.BeginDefault()
		r1 := t1.Scan("kv", storage.ScanOptions{
			Filter: &storage.EqFilter{Column: "key", Value: storage.Str("p")},
		}, func(storage.RowID, []storage.Value) bool { return true })
		_, _, u1 := t1.Insert("kv", map[string]storage.Value{
			"key": storage.Str("q"), "value": storage.Str("t1")})
		t2 := db.BeginDefault()
		_, _, u2 := t2.Insert("kv", map[string]storage.Value{
			"key": storage.Str("p"), "value": storage.Str("t2")})
		c2 := error(nil)
		if u2 == nil {
			c2 = t2.Commit()
		} else {
			t2.Rollback()
		}
		c1 := error(nil)
		if u1 == nil {
			c1 = t1.Commit()
		} else {
			t1.Rollback()
		}
		return fmt.Sprintf("r1=%s u1=%s u2=%s c2=%s c1=%s",
			errClass(r1), errClass(u1), errClass(u2), errClass(c2), errClass(c1))
	}, map[storage.IsolationLevel]stormResult{
		storage.ReadCommitted:     {"r1=ok u1=ok u2=ok c2=ok c1=ok", "committed=2 aborted=0", "[]"},
		storage.RepeatableRead:    {"r1=ok u1=ok u2=ok c2=ok c1=ok", "committed=2 aborted=0", "[]"},
		storage.SnapshotIsolation: {"r1=ok u1=ok u2=ok c2=ok c1=ok", "committed=2 aborted=0", "[]"},
		storage.Serializable:      {"r1=ok u1=ok u2=ok c2=ok c1=serialization", "committed=1 aborted=1", "[]"},
		storage.Serializable2PL:   {"r1=ok u1=ok u2=locktimeout c2=ok c1=ok", "committed=1 aborted=1", "[]"},
	}},
}

// TestChaosCommitStormShapes runs each deterministic conflict shape at every
// isolation level and requires exactly the pinned result: the same step
// outcomes, the same commit/abort census, and the same anomaly classes from
// the offline checker.
func TestChaosCommitStormShapes(t *testing.T) {
	for _, level := range stormLevels {
		for _, shape := range stormShapes {
			t.Run(fmt.Sprintf("%s/%s", level, shape.name), func(t *testing.T) {
				db := stormDB(t, level)
				defer db.Close()
				outcome := shape.run(t, db)
				rep := histcheck.Check(db.History())
				if !rep.Pass() {
					t.Fatalf("history fails its own level:\n%s", rep)
				}
				got := stormResult{
					outcome: outcome,
					commits: fmt.Sprintf("committed=%d aborted=%d", rep.Committed, rep.Aborted),
					classes: fmt.Sprintf("%v", rep.Classes()),
				}
				if want := shape.want[level]; got != want {
					t.Fatalf("shape result changed:\ngot:  %+v\nwant: %+v", got, want)
				}
			})
		}
	}
}

// TestChaosCommitStormAllLevels free-runs a seeded storm of committers with
// disjoint write sets (each worker owns a private row) and overlapping ones
// (all workers contend on a shared row set) at every isolation level and
// gates the recorded history: it must pass the checker, never show a structural anomaly, and never show a class the
// level's Allowed set proscribes.
func TestChaosCommitStormAllLevels(t *testing.T) {
	const (
		seed    = 2015
		workers = 8
		ops     = 30
		shared  = 3
	)
	for _, level := range stormLevels {
		t.Run(level.String(), func(t *testing.T) {
			db := stormDB(t, level)
			defer db.Close()
			sharedIDs := make([]storage.RowID, shared)
			for i := range sharedIDs {
				sharedIDs[i] = stormInsert(t, db, fmt.Sprintf("s%d", i), "0")
			}
			ownIDs := make([]storage.RowID, workers)
			for w := range ownIDs {
				ownIDs[w] = stormInsert(t, db, fmt.Sprintf("w%d", w), "0")
			}

			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed + int64(w)*7919))
					for op := 0; op < ops; op++ {
						id := ownIDs[w] // disjoint: private row, conflict-free
						if rng.Intn(2) == 0 {
							id = sharedIDs[rng.Intn(shared)] // overlapping
						}
						tx := db.BeginDefault()
						if err := stormRead(tx, id); err != nil {
							tx.Rollback()
							continue
						}
						if err := stormUpdate(tx, id, fmt.Sprintf("w%d-%d", w, op)); err != nil {
							tx.Rollback()
							continue
						}
						if err := tx.Commit(); err != nil &&
							!errors.Is(err, storage.ErrSerialization) &&
							!errors.Is(err, storage.ErrLockTimeout) {
							t.Errorf("unexpected commit error: %v", err)
						}
					}
				}(w)
			}
			wg.Wait()

			rep := histcheck.Check(db.History())
			t.Logf("storm at %v: %d txs (%d committed, %d aborted), classes %v",
				level, rep.Transactions, rep.Committed, rep.Aborted, rep.Classes())
			if !rep.Pass() {
				t.Fatalf("engine emitted a history %v forbids:\n%s", level, rep)
			}
			allowed := histcheck.Allowed(level.String())
			for _, a := range rep.Classes() {
				if !allowed[a] {
					t.Fatalf("%s appears at %v but is proscribed:\n%s", a, level, rep)
				}
			}
		})
	}
}
