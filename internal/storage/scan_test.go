package storage

import (
	"errors"
	"fmt"
	"math"
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

// sameRows reports whether two scans produced the same rows, bit for bit:
// same ids in the same order, same kinds, same values (NaN equals NaN, -0
// differs from 0).
func sameRows(a, b []scanRow) bool {
	return slices.EqualFunc(a, b, func(x, y scanRow) bool {
		return x.id == y.id && slices.EqualFunc(x.vals, y.vals, func(u, v Value) bool {
			return u.Kind == v.Kind && u.I == v.I && math.Float64bits(u.F) == math.Float64bits(v.F) &&
				u.S == v.S && u.B == v.B && u.T.Equal(v.T)
		})
	})
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
// own writes, at every isolation level. Filters name the text column or a
// DOUBLE column holding integers, ±0, NaN and NULL, probed with Int and
// Float values alike. Every vacuum is followed by a scan, and a read-only
// transaction kept open across commits scans with no own writes — the
// hash-prefiltered heap walk — while later commits have moved row heads past
// its snapshot. Locks never wait (LockQueueBound < 0), so the single driving
// goroutine cannot block: a transaction refused a lock is rolled back, as one
// that lost a deadlock would be.
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
	schema := kvSchema("kv")
	schema.Columns = append(schema.Columns, Column{Name: "num", Kind: KindFloat})
	mustCreate(t, db, schema)
	if indexed {
		for _, col := range []string{"key", "num"} {
			if err := db.AddIndex("kv", col, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	randKey := func() Value {
		if rng.Intn(8) == 0 {
			return Null()
		}
		return Str(fmt.Sprint("k", rng.Intn(5)))
	}
	// randNum draws the DOUBLE column's values and filters: small integers as
	// Int or Float (stored as Float either way), -0, NaN and NULL.
	randNum := func() Value {
		switch n := rng.Intn(10); {
		case n == 0:
			return Null()
		case n == 1:
			return Float(math.Copysign(0, -1))
		case n == 2:
			return Float(math.NaN())
		case n < 6:
			return Int(int64(n % 3))
		default:
			return Float(float64(n % 3))
		}
	}
	randFilter := func() *EqFilter {
		if rng.Intn(2) == 0 {
			return &EqFilter{Column: "key", Value: randKey()}
		}
		return &EqFilter{Column: "num", Value: randNum()}
	}
	// Higher seeds start from a heap that spans several scan chunks.
	for i := 0; i < int(seed-1)*(scanChunk-50); i++ {
		tx := db.Begin(ReadCommitted)
		if _, _, err := tx.Insert("kv", map[string]Value{"key": randKey(), "value": Str("preload"), "num": randNum()}); err != nil {
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
			opts.Filter = randFilter()
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
		if !sameRows(got, want) {
			t.Fatalf("scan %+v (filter %v) in tx %d with own writes %v:\n got %v\nwant %v",
				opts, opts.Filter, o.tx.ID(), o.own, got, want)
		}
	}

	// reader never writes, so its scans take the prefiltered heap walk; it
	// stays open for up to 40 steps (a 2PL reader's shared locks refuse every
	// writer meanwhile) and counts the scans it ran after a commit.
	var reader *Tx
	var readerClock uint64
	readerSteps, staleReads := 0, 0
	checkReader := func() {
		if reader == nil {
			return
		}
		opts := ScanOptions{}
		if rng.Intn(4) > 0 {
			opts.Filter = randFilter()
		}
		want, err := referenceScan(db, reader, nil, opts)
		if err == nil {
			var got []scanRow
			if got, err = collectScan(reader, opts); err == nil && !sameRows(got, want) {
				t.Fatalf("read-only scan (filter %v) in tx %d:\n got %v\nwant %v", opts.Filter, reader.ID(), got, want)
			}
		}
		if err != nil {
			reader.Rollback()
			reader = nil
			return
		}
		if db.Clock() > readerClock {
			staleReads++
		}
	}

	for step := 0; step < 500; step++ {
		if reader == nil {
			reader, readerClock, readerSteps = db.Begin(level), db.Clock(), 0
		} else if readerSteps++; readerSteps == 40 {
			reader.Rollback()
			reader = nil
		} else if rng.Intn(10) == 0 {
			checkReader()
		}
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
			id, _, err = o.tx.Insert("kv", map[string]Value{"key": randKey(), "value": Str(fmt.Sprint("v", step)), "num": randNum()})
			if err == nil {
				allocated = append(allocated, id)
				o.own[id] = true
			}
		case op < 9 && len(allocated) > 0:
			id := allocated[rng.Intn(len(allocated))]
			set := map[string]Value{"key": randKey()}
			if rng.Intn(2) == 0 {
				set = map[string]Value{"num": randNum()}
			}
			if err = o.tx.Update("kv", id, set); err == nil {
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
			check(i)
			checkReader()
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
	if reader != nil {
		reader.Rollback()
	}
	if checks < 40 {
		t.Fatalf("only %d scans were compared; the driver is not exercising the scan", checks)
	}
	if staleReads < 10 {
		t.Fatalf("only %d read-only scans ran after a commit; the prefiltered walk is not exercised", staleReads)
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

// TestIndexedAndHeapPlansAgreeOnNumbers: an equality filter returns the same
// rows whether it walks the heap or an index bucket, for the numbers where the
// two once disagreed — NaN (which compared equal to every number) and -0
// (which keyed apart from 0) — and for Int and Float probes of one value.
func TestIndexedAndHeapPlansAgreeOnNumbers(t *testing.T) {
	db := Open(Options{})
	mustCreate(t, db, &Schema{Name: "m", Columns: []Column{
		{Name: "id", Kind: KindInt, PrimaryKey: true},
		{Name: "f", Kind: KindFloat},
	}})
	negZero := Float(math.Copysign(0, -1))
	for _, v := range []Value{Float(math.NaN()), Float(3), negZero, Float(0), Float(math.NaN()), Float(2.5), Null()} {
		tx := db.Begin(ReadCommitted)
		if _, _, err := tx.Insert("m", map[string]Value{"f": v}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	filters := []struct {
		v    Value
		want string
	}{
		{Float(math.NaN()), "[1 5]"},
		{Float(0), "[3 4]"},
		{negZero, "[3 4]"},
		{Int(3), "[2]"},
		{Float(3), "[2]"},
		{Null(), "[]"},
	}
	ids := func(v Value) string {
		tx := db.Begin(ReadCommitted)
		defer tx.Rollback()
		var out []RowID
		if err := tx.Scan("m", ScanOptions{Filter: &EqFilter{Column: "f", Value: v}}, func(id RowID, _ []Value) bool {
			out = append(out, id)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(out)
	}
	for _, plan := range []string{"heap", "index"} {
		if plan == "index" {
			if err := db.AddIndex("m", "f", false); err != nil {
				t.Fatal(err)
			}
		}
		for _, f := range filters {
			if got := ids(f.v); got != f.want {
				t.Errorf("%s plan: f = %v %s matched rows %s, want %s", plan, f.v.Kind, f.v.Format(), got, f.want)
			}
		}
	}
}
