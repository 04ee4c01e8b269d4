package orm

import (
	"errors"
	"sync"
	"testing"
	"time"

	"feralcc/internal/db"
	"feralcc/internal/storage"
)

// testStack builds a database + registry + one session.
func testStack(t *testing.T, models ...*Model) (*db.DB, *Registry, *Session) {
	t.Helper()
	r, err := NewRegistry(models...)
	if err != nil {
		t.Fatal(err)
	}
	d := db.Open(storage.Options{LockTimeout: 500 * time.Millisecond})
	s := NewSession(r, d.Connect())
	if err := s.Migrate(); err != nil {
		t.Fatal(err)
	}
	return d, r, s
}

func kvModel(withUniqueness bool) *Model {
	m := &Model{
		Name:      "Entry",
		TableName: "entries",
		Attrs: []Attr{
			{Name: "key", Kind: storage.KindString},
			{Name: "value", Kind: storage.KindString},
		},
	}
	if withUniqueness {
		m.Validations = []Validation{&Uniqueness{Attr: "key"}}
	}
	return m
}

func attrs(kv ...any) map[string]storage.Value {
	m := make(map[string]storage.Value, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		switch v := kv[i+1].(type) {
		case string:
			m[kv[i].(string)] = storage.Str(v)
		case int:
			m[kv[i].(string)] = storage.Int(int64(v))
		case int64:
			m[kv[i].(string)] = storage.Int(v)
		case storage.Value:
			m[kv[i].(string)] = v
		default:
			panic("bad attr")
		}
	}
	return m
}

func TestCreateFindReload(t *testing.T) {
	_, _, s := testStack(t, kvModel(false))
	rec, err := s.Create("Entry", attrs("key", "a", "value", "1"))
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Persisted() || rec.ID() == 0 {
		t.Fatalf("not persisted: %+v", rec)
	}
	found, err := s.Find("Entry", rec.ID())
	if err != nil || found.GetString("key") != "a" {
		t.Fatalf("Find: %v %v", found, err)
	}
	if _, err := s.Find("Entry", 999); !errors.Is(err, ErrRecordNotFound) {
		t.Fatalf("missing find: %v", err)
	}
	// Update via Set + Save, then Reload an older handle.
	stale, _ := s.Find("Entry", rec.ID())
	_ = found.Set("value", storage.Str("2"))
	if err := s.Save(found); err != nil {
		t.Fatal(err)
	}
	if err := s.Reload(stale); err != nil {
		t.Fatal(err)
	}
	if stale.GetString("value") != "2" {
		t.Fatalf("reload: %q", stale.GetString("value"))
	}
}

func TestWhereAllCount(t *testing.T) {
	_, _, s := testStack(t, kvModel(false))
	for _, k := range []string{"a", "a", "b"} {
		if _, err := s.Create("Entry", attrs("key", k)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Where("Entry", "key", storage.Str("a"))
	if err != nil || len(got) != 2 {
		t.Fatalf("Where: %d %v", len(got), err)
	}
	all, err := s.All("Entry")
	if err != nil || len(all) != 3 {
		t.Fatalf("All: %d %v", len(all), err)
	}
	n, err := s.Count("Entry")
	if err != nil || n != 3 {
		t.Fatalf("Count: %d %v", n, err)
	}
	if _, err := s.Where("Entry", "ghost", storage.Str("x")); !errors.Is(err, ErrUnknownAttr) {
		t.Fatalf("bad attr: %v", err)
	}
}

func TestValidationFailureRollsBack(t *testing.T) {
	m := kvModel(false)
	m.Validations = []Validation{&Presence{Attr: "key"}}
	_, _, s := testStack(t, m)
	rec, err := s.Create("Entry", attrs("value", "no key"))
	if !errors.Is(err, ErrRecordInvalid) {
		t.Fatalf("expected invalid, got %v", err)
	}
	if rec.Persisted() {
		t.Fatal("invalid record persisted")
	}
	if msgs := rec.Errors(); len(msgs) != 1 || msgs[0] != "key can't be blank" {
		t.Fatalf("messages: %v", msgs)
	}
	if n, _ := s.Count("Entry"); n != 0 {
		t.Fatal("row written despite validation failure")
	}
}

func TestValidCollectsAllMessages(t *testing.T) {
	m := kvModel(false)
	m.Validations = []Validation{
		&Presence{Attr: "key"},
		&Length{Attr: "value", Min: 3},
	}
	_, _, s := testStack(t, m)
	rec, _ := s.New("Entry", attrs("value", "x"))
	ok, err := s.Valid(rec)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("record should be invalid")
	}
	if len(rec.Errors()) != 2 {
		t.Fatalf("want both messages, got %v", rec.Errors())
	}
	_ = rec.Set("key", storage.Str("k"))
	_ = rec.Set("value", storage.Str("long enough"))
	if ok, _ := s.Valid(rec); !ok {
		t.Fatalf("record should now be valid: %v", rec.Errors())
	}
	if n, _ := s.Count("Entry"); n != 0 {
		t.Fatal("Valid must not persist")
	}
}

func TestFeralUniquenessSequentialWorks(t *testing.T) {
	// Serially, the feral uniqueness validation does its job.
	_, _, s := testStack(t, kvModel(true))
	if _, err := s.Create("Entry", attrs("key", "a")); err != nil {
		t.Fatal(err)
	}
	_, err := s.Create("Entry", attrs("key", "a"))
	if !errors.Is(err, ErrRecordInvalid) {
		t.Fatalf("duplicate save should fail validation: %v", err)
	}
	if n, _ := s.Count("Entry"); n != 1 {
		t.Fatal("duplicate written")
	}
	// Updating a record does not collide with itself.
	recs, _ := s.Where("Entry", "key", storage.Str("a"))
	_ = recs[0].Set("value", storage.Str("new"))
	if err := s.Save(recs[0]); err != nil {
		t.Fatalf("self-collision: %v", err)
	}
}

func TestFeralUniquenessConcurrentRaceAdmitsDuplicates(t *testing.T) {
	// Two sessions on separate connections: both validate before either
	// commits -> duplicates (Section 5.1 in miniature, at Read Committed).
	d, r, _ := testStack(t, kvModel(true))
	var barrier, done sync.WaitGroup
	barrier.Add(2)
	done.Add(2)
	for i := 0; i < 2; i++ {
		go func() {
			defer done.Done()
			sess := NewSession(r, d.Connect())
			defer sess.Conn().Close()
			_ = sess.Transaction(func() error {
				rec, _ := sess.New("Entry", attrs("key", "contested"))
				if err := sess.runValidations(rec, false); err != nil {
					barrier.Done()
					barrier.Wait()
					return err
				}
				barrier.Done()
				barrier.Wait() // both validated; neither has written
				return sess.performInsert(rec)
			})
		}()
	}
	done.Wait()
	check := NewSession(r, d.Connect())
	defer check.Conn().Close()
	recs, _ := check.Where("Entry", "key", storage.Str("contested"))
	if len(recs) != 2 {
		t.Fatalf("expected the feral race to admit a duplicate, got %d rows", len(recs))
	}
}

func TestUniqueIndexMigrationStopsTheRace(t *testing.T) {
	// Same race, but with the paper's remedy applied: in-database unique
	// index. One insert fails with ErrUniqueViolation; no duplicates.
	d, r, s := testStack(t, kvModel(true))
	if err := s.AddUniqueIndex("Entry", "key"); err != nil {
		t.Fatal(err)
	}
	var barrier, done sync.WaitGroup
	barrier.Add(2)
	done.Add(2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			defer done.Done()
			sess := NewSession(r, d.Connect())
			defer sess.Conn().Close()
			errs[i] = sess.Transaction(func() error {
				rec, _ := sess.New("Entry", attrs("key", "contested"))
				if err := sess.runValidations(rec, false); err != nil {
					barrier.Done()
					barrier.Wait()
					return err
				}
				barrier.Done()
				barrier.Wait()
				return sess.performInsert(rec)
			})
		}(i)
	}
	done.Wait()
	uniqueFailures := 0
	for _, err := range errs {
		if errors.Is(err, storage.ErrUniqueViolation) {
			uniqueFailures++
		}
	}
	if uniqueFailures != 1 {
		t.Fatalf("expected exactly one unique violation, errs=%v", errs)
	}
	check := NewSession(r, d.Connect())
	defer check.Conn().Close()
	if n, _ := check.Count("Entry"); n != 1 {
		t.Fatalf("rows = %d, want 1", n)
	}
}

func TestOptimisticLocking(t *testing.T) {
	m := kvModel(false)
	m.OptimisticLocking = true
	_, r, s := testStack(t, m)
	rec, err := s.Create("Entry", attrs("key", "a", "value", "1"))
	if err != nil {
		t.Fatal(err)
	}
	if rec.LockVersion() != 0 {
		t.Fatalf("initial lock_version = %d", rec.LockVersion())
	}
	// Two handles to the same row.
	s2 := NewSession(r, s.Conn())
	_ = s2
	h1, _ := s.Find("Entry", rec.ID())
	h2, _ := s.Find("Entry", rec.ID())
	_ = h1.Set("value", storage.Str("first"))
	if err := s.Save(h1); err != nil {
		t.Fatal(err)
	}
	if h1.LockVersion() != 1 {
		t.Fatalf("lock_version after save = %d", h1.LockVersion())
	}
	_ = h2.Set("value", storage.Str("second"))
	if err := s.Save(h2); !errors.Is(err, ErrStaleObject) {
		t.Fatalf("stale save: %v", err)
	}
	// The paper's Spree anecdote: after StaleObjectError during checkout,
	// the developer reloads and retries.
	if err := s.Reload(h2); err != nil {
		t.Fatal(err)
	}
	_ = h2.Set("value", storage.Str("second"))
	if err := s.Save(h2); err != nil {
		t.Fatalf("retry after reload: %v", err)
	}
}

func TestPessimisticLockSerializesIncrements(t *testing.T) {
	// Spree's adjust_count_on_hand: lock + read + write never loses updates.
	m := &Model{
		Name:  "StockItem",
		Attrs: []Attr{{Name: "count_on_hand", Kind: storage.KindInt}},
	}
	d, r, s := testStack(t, m)
	rec, err := s.Create("StockItem", attrs("count_on_hand", 0))
	if err != nil {
		t.Fatal(err)
	}
	// Lock outside a transaction is an error.
	if err := s.Lock(rec); err == nil {
		t.Fatal("Lock outside transaction should fail")
	}

	const workers, rounds = 8, 10
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			sess := NewSession(r, d.Connect())
			defer sess.Conn().Close()
			for i := 0; i < rounds; i++ {
				for {
					err := sess.Transaction(func() error {
						h, err := sess.Find("StockItem", rec.ID())
						if err != nil {
							return err
						}
						if err := sess.Lock(h); err != nil {
							return err
						}
						_ = h.Set("count_on_hand", storage.Int(h.GetInt("count_on_hand")+1))
						return sess.performUpdate(h)
					})
					if err == nil {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	final, _ := s.Find("StockItem", rec.ID())
	if got := final.GetInt("count_on_hand"); got != workers*rounds {
		t.Fatalf("count_on_hand = %d, want %d (lost updates under lock!)", got, workers*rounds)
	}
}

func TestDestroyWithDependentDestroyCascades(t *testing.T) {
	dept, user := userDeptModels()
	_, _, s := testStack(t, dept, user)
	d, err := s.Create("Department", attrs("name", "eng"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Create("User", attrs("name", "u", "department_id", d.ID())); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Destroy(d); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Count("User"); n != 0 {
		t.Fatalf("feral cascade left %d users", n)
	}
	if n, _ := s.Count("Department"); n != 0 {
		t.Fatal("department survived destroy")
	}
	if d.Persisted() {
		t.Fatal("record still marked persisted")
	}
}

func TestDestroyWithDependentDelete(t *testing.T) {
	dept, user := userDeptModels()
	dept.Associations[0].Dependent = DependentDelete
	_, _, s := testStack(t, dept, user)
	d, _ := s.Create("Department", attrs("name", "eng"))
	_, _ = s.Create("User", attrs("department_id", d.ID()))
	if err := s.Destroy(d); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Count("User"); n != 0 {
		t.Fatal("delete_all cascade failed")
	}
}

func TestDestroyUnsavedFails(t *testing.T) {
	_, _, s := testStack(t, kvModel(false))
	rec, _ := s.New("Entry", attrs("key", "a"))
	if err := s.Destroy(rec); !errors.Is(err, ErrNotPersisted) {
		t.Fatalf("destroy unsaved: %v", err)
	}
}

func TestAssociationPresenceValidation(t *testing.T) {
	dept, user := userDeptModels()
	_, _, s := testStack(t, dept, user)
	// No department: presence of association fails on NULL FK.
	_, err := s.Create("User", attrs("name", "floating"))
	if !errors.Is(err, ErrRecordInvalid) {
		t.Fatalf("missing association: %v", err)
	}
	// Dangling FK: presence probes the parent table.
	_, err = s.Create("User", attrs("name", "dangling", "department_id", 12345))
	if !errors.Is(err, ErrRecordInvalid) {
		t.Fatalf("dangling FK: %v", err)
	}
	d, _ := s.Create("Department", attrs("name", "eng"))
	if _, err := s.Create("User", attrs("name", "ok", "department_id", d.ID())); err != nil {
		t.Fatal(err)
	}
}

func TestFeralCascadeRaceOrphansUsers(t *testing.T) {
	// Section 5.4 in miniature: a user insert racing a feral cascading
	// delete produces an orphan; the validations cannot see each other.
	dept, user := userDeptModels()
	d, r, s := testStack(t, dept, user)
	deptRec, err := s.Create("Department", attrs("name", "doomed"))
	if err != nil {
		t.Fatal(err)
	}

	var barrier, done sync.WaitGroup
	barrier.Add(2)
	done.Add(2)
	// Deleter: runs the feral cascade (finds no users), waits, then deletes
	// the department and commits.
	go func() {
		defer done.Done()
		sess := NewSession(r, d.Connect())
		defer sess.Conn().Close()
		_ = sess.Transaction(func() error {
			children, err := sess.Where("User", "department_id", storage.Int(deptRec.ID()))
			if err != nil {
				barrier.Done()
				barrier.Wait()
				return err
			}
			for _, c := range children {
				if err := sess.destroyTree(c); err != nil {
					return err
				}
			}
			barrier.Done()
			barrier.Wait() // inserter has validated by now
			_, err = sess.Conn().Exec("DELETE FROM departments WHERE id = ?", storage.Int(deptRec.ID()))
			return err
		})
	}()
	// Inserter: validates the department exists (it does), waits, inserts.
	go func() {
		defer done.Done()
		sess := NewSession(r, d.Connect())
		defer sess.Conn().Close()
		_ = sess.Transaction(func() error {
			rec, _ := sess.New("User", attrs("name", "orphan", "department_id", deptRec.ID()))
			if err := sess.runValidations(rec, false); err != nil {
				barrier.Done()
				barrier.Wait()
				return err
			}
			barrier.Done()
			barrier.Wait()
			return sess.performInsert(rec)
		})
	}()
	done.Wait()

	// Count orphans with the Appendix C.5 query.
	check := d.Connect()
	defer check.Close()
	res, err := check.Exec(`SELECT COUNT(*) FROM users AS U
		LEFT OUTER JOIN departments AS D ON U.department_id = D.id
		WHERE D.id IS NULL`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 1 {
		t.Fatalf("expected exactly one orphaned user, got %d", res.Rows[0][0].I)
	}
}

func TestInDatabaseFKStopsCascadeRace(t *testing.T) {
	// Same race with the paper's remedy: in-database FK with CASCADE.
	dept, user := userDeptModels()
	d, r, s := testStack(t, dept, user)
	if err := s.AddForeignKey("User", "department", storage.Cascade); err != nil {
		t.Fatal(err)
	}
	deptRec, _ := s.Create("Department", attrs("name", "doomed"))

	var barrier, done sync.WaitGroup
	barrier.Add(2)
	done.Add(2)
	go func() {
		defer done.Done()
		sess := NewSession(r, d.Connect())
		defer sess.Conn().Close()
		_ = sess.Transaction(func() error {
			barrier.Done()
			barrier.Wait()
			_, err := sess.Conn().Exec("DELETE FROM departments WHERE id = ?", storage.Int(deptRec.ID()))
			return err
		})
	}()
	go func() {
		defer done.Done()
		sess := NewSession(r, d.Connect())
		defer sess.Conn().Close()
		_ = sess.Transaction(func() error {
			rec, _ := sess.New("User", attrs("name", "maybe-orphan", "department_id", deptRec.ID()))
			if err := sess.runValidations(rec, false); err != nil {
				barrier.Done()
				barrier.Wait()
				return err
			}
			barrier.Done()
			barrier.Wait()
			return sess.performInsert(rec) // may fail with FK violation: fine
		})
	}()
	done.Wait()

	check := d.Connect()
	defer check.Close()
	res, _ := check.Exec(`SELECT COUNT(*) FROM users AS U
		LEFT OUTER JOIN departments AS D ON U.department_id = D.id
		WHERE D.id IS NULL`)
	if res.Rows[0][0].I != 0 {
		t.Fatalf("in-database FK admitted %d orphans", res.Rows[0][0].I)
	}
}

func TestTransactionSemantics(t *testing.T) {
	_, _, s := testStack(t, kvModel(false))
	// Rollback on error.
	err := s.Transaction(func() error {
		if _, err := s.Create("Entry", attrs("key", "a")); err != nil {
			return err
		}
		return errors.New("boom")
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
	if n, _ := s.Count("Entry"); n != 0 {
		t.Fatal("rollback failed")
	}
	// Nested transactions are rejected.
	err = s.Transaction(func() error {
		return s.Transaction(func() error { return nil })
	})
	if !errors.Is(err, ErrNestedTransaction) {
		t.Fatalf("nested: %v", err)
	}
	// Explicit isolation level.
	err = s.TransactionAt("SERIALIZABLE", func() error {
		_, err := s.Create("Entry", attrs("key", "iso"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Count("Entry"); n != 1 {
		t.Fatal("serializable transaction lost its write")
	}
}

func TestTimestampsMaintained(t *testing.T) {
	m := kvModel(false)
	m.Timestamps = true
	_, _, s := testStack(t, m)
	t0 := time.Date(2015, 5, 31, 12, 0, 0, 0, time.UTC)
	s.clock = func() time.Time { return t0 }
	rec, err := s.Create("Entry", attrs("key", "a"))
	if err != nil {
		t.Fatal(err)
	}
	res, _ := s.Conn().Exec("SELECT created_at, updated_at FROM entries WHERE id = ?", storage.Int(rec.ID()))
	if !res.Rows[0][0].T.Equal(t0) || !res.Rows[0][1].T.Equal(t0) {
		t.Fatalf("timestamps: %+v", res.Rows[0])
	}
	t1 := t0.Add(time.Hour)
	s.clock = func() time.Time { return t1 }
	_ = rec.Set("value", storage.Str("x"))
	if err := s.Save(rec); err != nil {
		t.Fatal(err)
	}
	res, _ = s.Conn().Exec("SELECT created_at, updated_at FROM entries WHERE id = ?", storage.Int(rec.ID()))
	if !res.Rows[0][0].T.Equal(t0) || !res.Rows[0][1].T.Equal(t1) {
		t.Fatalf("updated_at not bumped: %+v", res.Rows[0])
	}
}

func TestRecordAttrAccess(t *testing.T) {
	_, _, s := testStack(t, kvModel(false))
	rec, _ := s.New("Entry", attrs("key", "a"))
	if _, err := rec.Get("ghost"); !errors.Is(err, ErrUnknownAttr) {
		t.Fatalf("get unknown: %v", err)
	}
	if err := rec.Set("ghost", storage.Str("x")); !errors.Is(err, ErrUnknownAttr) {
		t.Fatalf("set unknown: %v", err)
	}
	// Any kind coerces to TEXT by design; an Int attribute rejects strings.
	intModel := &Model{Name: "Counter", Attrs: []Attr{{Name: "n", Kind: storage.KindInt}}}
	r2, err := NewRegistry(intModel)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewSession(r2, s.Conn())
	cnt, _ := s2.New("Counter", nil)
	if err := cnt.Set("n", storage.Str("not a number")); !errors.Is(err, storage.ErrTypeMismatch) {
		t.Fatalf("type mismatch: %v", err)
	}
	if v, _ := rec.Get("value"); !v.IsNull() {
		t.Fatal("unset attr should be NULL")
	}
	if v, _ := rec.Get("id"); v.I != 0 {
		t.Fatal("unsaved id should be 0")
	}
}

func TestDefaultsAppliedOnNew(t *testing.T) {
	m := &Model{
		Name:  "Widget",
		Attrs: []Attr{{Name: "state", Kind: storage.KindString, Default: storage.Str("pending")}},
	}
	_, _, s := testStack(t, m)
	rec, err := s.Create("Widget", nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := s.Find("Widget", rec.ID())
	if got.GetString("state") != "pending" {
		t.Fatalf("default not applied: %q", got.GetString("state"))
	}
}

// flakyCommitConn fails every other COMMIT with a serialization abort,
// rolling the transaction back first as the engine would, so each
// transaction commits on its second attempt.
type flakyCommitConn struct {
	db.Conn
	commits int
}

func (c *flakyCommitConn) Prepare(sql string) (db.Stmt, error) {
	st, err := c.Conn.Prepare(sql)
	if err != nil || sql != "COMMIT" {
		return st, err
	}
	return &flakyCommitStmt{Stmt: st, conn: c}, nil
}

type flakyCommitStmt struct {
	db.Stmt
	conn *flakyCommitConn
}

func (st *flakyCommitStmt) Exec(args ...storage.Value) (*db.Result, error) {
	st.conn.commits++
	if st.conn.commits%2 == 1 {
		if _, err := st.conn.Conn.Exec("ROLLBACK"); err != nil {
			return nil, err
		}
		return nil, storage.ErrSerialization
	}
	return st.Stmt.Exec(args...)
}

// TestRetryBudgetFedByTransactions: each transaction the session opens is a
// first attempt to its retry budget, so a budget the session does not share
// with a db.Reliable connection keeps granting retries after its first
// burst is spent. With one token and no deposits, the second transaction's
// retry would be denied.
func TestRetryBudgetFedByTransactions(t *testing.T) {
	d, r, _ := testStack(t, kvModel(false))
	s := NewSession(r, &flakyCommitConn{Conn: d.Connect()})
	s.Retry = db.RetryPolicy{MaxRetries: 1, BaseDelay: time.Microsecond, Budget: db.NewRetryBudget(1, 1)}
	for _, key := range []string{"first", "second", "third"} {
		if _, err := s.Create("Entry", attrs("key", key, "value", "v")); err != nil {
			t.Fatalf("create %s: %v", key, err)
		}
	}
	if s.Retries() != 3 {
		t.Fatalf("retries = %d, want 3", s.Retries())
	}
	if st := s.Retry.Budget.Stats(); st.Denied != 0 || st.Retries != 3 || st.FirstAttempts != 3 {
		t.Fatalf("budget stats = %+v, want 3 first attempts, 3 retries, 0 denied", st)
	}
}
