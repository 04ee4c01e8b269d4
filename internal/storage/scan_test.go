package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// scanRow is one row a scan (or the reference) produced.
type scanRow struct {
	id   RowID
	vals []Value
}

func (r scanRow) String() string {
	s := fmt.Sprintf("%d:", r.id)
	for _, v := range r.vals {
		s += " " + v.Format()
	}
	return s
}

// collectScan runs tx.Scan and returns its rows in emission order. It then
// scribbles over every slice the scan handed out: Scan promises the callee
// owns them, so a later read that sees "scribbled" means a scan leaked a
// committed image or a buffered write.
func collectScan(tx *Tx, opts ScanOptions) ([]scanRow, error) {
	var out []scanRow
	var handed [][]Value
	err := tx.Scan("kv", opts, func(id RowID, vals []Value) bool {
		out = append(out, scanRow{id, slices.Clone(vals)})
		handed = append(handed, vals)
		return true
	})
	for _, vals := range handed {
		for i := range vals {
			vals[i] = Str("scribbled")
		}
	}
	return out, err
}

// referenceScan is the naive scan the real one is checked against: every slot
// the allocator ever handed out, in order, through Tx.Get. For a locking scan
// it models SELECT ... FOR UPDATE's re-read: a committed row must pass the
// filter in the scanner's snapshot and again in its latest committed image
// (read through a fresh READ COMMITTED transaction), which is what comes out;
// rows the scanner wrote itself come out as buffered.
func referenceScan(db *Database, tx *Tx, own map[RowID]bool, opts ScanOptions) ([]scanRow, error) {
	t, err := db.lookupTable("kv")
	if err != nil {
		return nil, err
	}
	pass := func(vals []Value) bool {
		if vals == nil {
			return false
		}
		if opts.Filter == nil {
			return true
		}
		v := vals[t.schema.ColumnIndex(opts.Filter.Column)]
		return !v.IsNull() && !opts.Filter.Value.IsNull() && Equal(v, opts.Filter.Value)
	}
	var latest *Tx
	if opts.ForUpdate {
		latest = db.Begin(ReadCommitted)
		defer latest.Rollback()
	}
	var out []scanRow
	for id := RowID(1); id <= RowID(atomic.LoadUint64(&t.nextRow)); id++ {
		vals, err := tx.Get("kv", id)
		if err != nil {
			return nil, err
		}
		if !pass(vals) {
			continue
		}
		if opts.ForUpdate && !own[id] {
			if vals, err = latest.Get("kv", id); err != nil {
				return nil, err
			}
			if !pass(vals) {
				continue
			}
		}
		out = append(out, scanRow{id, vals})
	}
	return out, nil
}

// TestScanMatchesReference drives seeded random inserts, updates, deletes,
// commits, aborts and vacuums through several open transactions at once and,
// as it goes, checks Tx.Scan against referenceScan — same rows, same images,
// same ascending order — with and without a filter, an index, FOR UPDATE and
// own writes, at every isolation level. Locks never wait (LockQueueBound < 0),
// so the single driving goroutine cannot block: a transaction refused a lock
// is rolled back, as one that lost a deadlock would be.
func TestScanMatchesReference(t *testing.T) {
	levels := []IsolationLevel{ReadCommitted, RepeatableRead, SnapshotIsolation, Serializable, Serializable2PL}
	for _, level := range levels {
		for _, indexed := range []bool{false, true} {
			for seed := int64(1); seed <= 4; seed++ {
				name := fmt.Sprintf("%v/indexed=%v/seed=%d", level, indexed, seed)
				t.Run(name, func(t *testing.T) { runScanDifferential(t, level, indexed, seed) })
			}
		}
	}
}

func runScanDifferential(t *testing.T, level IsolationLevel, indexed bool, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	db := Open(Options{LockQueueBound: -1})
	mustCreate(t, db, kvSchema("kv"))
	if indexed {
		if err := db.AddIndex("kv", "key", false); err != nil {
			t.Fatal(err)
		}
	}
	randKey := func() Value {
		if rng.Intn(8) == 0 {
			return Null()
		}
		return Str(fmt.Sprint("k", rng.Intn(5)))
	}
	// Higher seeds start from a heap that spans several scan chunks.
	for i := 0; i < int(seed-1)*(scanChunk-50); i++ {
		tx := db.Begin(ReadCommitted)
		if _, _, err := tx.Insert("kv", map[string]Value{"key": randKey(), "value": Str("preload")}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	type openTx struct {
		tx  *Tx
		own map[RowID]bool // rows this transaction has buffered a write for
	}
	var open []*openTx
	var allocated []RowID // every row id a driven transaction was given
	end := func(i int, commit bool) {
		if commit {
			_ = open[i].tx.Commit() // a failed commit has already rolled back
		} else {
			open[i].tx.Rollback()
		}
		open = slices.Delete(open, i, i+1)
	}
	checks := 0
	check := func(i int) {
		o := open[i]
		opts := ScanOptions{ForUpdate: rng.Intn(4) == 0}
		if rng.Intn(3) > 0 {
			opts.Filter = &EqFilter{Column: "key", Value: randKey()}
		}
		// The reference runs first: under FOR UPDATE the scan takes row locks
		// that would refuse the reference's fresh reader at Serializable2PL.
		want, err := referenceScan(db, o.tx, o.own, opts)
		if err != nil {
			end(i, false)
			return
		}
		got, err := collectScan(o.tx, opts)
		if err != nil {
			end(i, false)
			return
		}
		checks++
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("scan %+v (filter %v) in tx %d with own writes %v:\n got %v\nwant %v",
				opts, opts.Filter, o.tx.ID(), o.own, got, want)
		}
	}

	for step := 0; step < 500; step++ {
		if len(open) == 0 || (len(open) < 4 && rng.Intn(5) == 0) {
			open = append(open, &openTx{tx: db.Begin(level), own: map[RowID]bool{}})
			continue
		}
		i := rng.Intn(len(open))
		o := open[i]
		var err error
		switch op := rng.Intn(20); {
		case op < 5:
			var id RowID
			id, _, err = o.tx.Insert("kv", map[string]Value{"key": randKey(), "value": Str(fmt.Sprint("v", step))})
			if err == nil {
				allocated = append(allocated, id)
				o.own[id] = true
			}
		case op < 9 && len(allocated) > 0:
			id := allocated[rng.Intn(len(allocated))]
			if err = o.tx.Update("kv", id, map[string]Value{"key": randKey()}); err == nil {
				o.own[id] = true
			} else if errors.Is(err, ErrNoSuchRow) {
				err = nil // not a row this transaction can see; it stays usable
			}
		case op < 11 && len(allocated) > 0:
			id := allocated[rng.Intn(len(allocated))]
			if err = o.tx.Delete("kv", id); err == nil {
				o.own[id] = true
			} else if errors.Is(err, ErrNoSuchRow) {
				err = nil
			}
		case op < 14:
			end(i, true)
		case op < 15:
			end(i, false)
		case op < 16:
			db.Vacuum()
		default:
			check(i)
		}
		if err != nil {
			end(i, false)
		}
	}
	for len(open) > 0 {
		end(0, false)
	}
	if checks < 40 {
		t.Fatalf("only %d scans were compared; the driver is not exercising the scan", checks)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestScanRacesCommittersAndVacuum runs scanners against concurrent
// committers and vacuum. Under -race it is the check that filtering committed
// images in place, outside any per-row copy, reads nothing a writer mutates;
// in any build it checks what a scan may never do under concurrency: emit rows
// out of order, emit a row that fails its filter, or — at snapshot isolation —
// see a different table the second time.
func TestScanRacesCommittersAndVacuum(t *testing.T) {
	db := Open(Options{})
	mustCreate(t, db, kvSchema("kv"))
	for i := 0; i < 600; i++ { // more than two scan chunks
		insertKV(t, db, "kv", fmt.Sprint("k", i%7), "seed")
	}
	var stop atomic.Bool
	var writers, scanners sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for !stop.Load() {
				tx := db.Begin(ReadCommitted)
				id := RowID(1 + rng.Intn(700))
				switch rng.Intn(3) {
				case 0:
					_, _, _ = tx.Insert("kv", map[string]Value{"key": Str(fmt.Sprint("k", rng.Intn(7))), "value": Str("new")})
				case 1:
					_ = tx.Update("kv", id, map[string]Value{"key": Str(fmt.Sprint("k", rng.Intn(7)))})
				default:
					_ = tx.Delete("kv", id)
				}
				_ = tx.Commit()
			}
		}(w)
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		for !stop.Load() {
			db.Vacuum()
		}
	}()

	scan := func(tx *Tx, filter *EqFilter) ([]scanRow, error) {
		var rows []scanRow
		err := tx.Scan("kv", ScanOptions{Filter: filter}, func(id RowID, vals []Value) bool {
			rows = append(rows, scanRow{id, vals})
			return true
		})
		for i, r := range rows {
			if i > 0 && rows[i-1].id >= r.id {
				return nil, fmt.Errorf("row %d emitted after row %d", r.id, rows[i-1].id)
			}
			if filter != nil && !Equal(r.vals[1], filter.Value) {
				return nil, fmt.Errorf("row %v does not satisfy key = %s", r, filter.Value.Format())
			}
		}
		return rows, err
	}
	for s := 0; s < 2; s++ {
		scanners.Add(1)
		go func(s int) {
			defer scanners.Done()
			for i := 0; i < 150; i++ {
				var filter *EqFilter
				if (i+s)%2 == 0 {
					filter = &EqFilter{Column: "key", Value: Str(fmt.Sprint("k", i%7))}
				}
				level := ReadCommitted
				if i%3 == 0 {
					level = SnapshotIsolation
				}
				tx := db.Begin(level)
				first, err := scan(tx, filter)
				if err == nil && level == SnapshotIsolation {
					var second []scanRow
					if second, err = scan(tx, filter); err == nil && fmt.Sprint(first) != fmt.Sprint(second) {
						err = fmt.Errorf("snapshot changed between scans:\n first %v\nsecond %v", first, second)
					}
				}
				tx.Rollback()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	scanners.Wait()
	stop.Store(true)
	writers.Wait()
}
