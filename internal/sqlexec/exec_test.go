package sqlexec

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"feralcc/internal/histcheck"
	"feralcc/internal/storage"
)

func newSession(t *testing.T) *Session {
	t.Helper()
	db := storage.Open(storage.Options{LockTimeout: 300 * time.Millisecond})
	return NewSession(db)
}

func mustExec(t *testing.T, s *Session, sql string, args ...storage.Value) *Result {
	t.Helper()
	res, err := s.Exec(sql, args...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func setupKV(t *testing.T, s *Session) {
	t.Helper()
	mustExec(t, s, "CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT, value TEXT)")
}

func TestCreateInsertSelect(t *testing.T) {
	s := newSession(t)
	setupKV(t, s)
	res := mustExec(t, s, "INSERT INTO kv (key, value) VALUES ('a', '1'), ('b', '2')")
	if res.RowsAffected != 2 || res.LastInsertID != 2 {
		t.Fatalf("insert result: %+v", res)
	}
	res = mustExec(t, s, "SELECT key, value FROM kv ORDER BY key")
	if len(res.Rows) != 2 || res.Rows[0][0].S != "a" || res.Rows[1][1].S != "2" {
		t.Fatalf("select rows: %+v", res.Rows)
	}
	if res.Columns[0] != "key" || res.Columns[1] != "value" {
		t.Fatalf("columns: %v", res.Columns)
	}
}

func TestSelectStarAndWhere(t *testing.T) {
	s := newSession(t)
	setupKV(t, s)
	mustExec(t, s, "INSERT INTO kv (key, value) VALUES ('a', '1'), ('b', '2'), ('a', '3')")
	res := mustExec(t, s, "SELECT * FROM kv WHERE key = 'a'")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if len(res.Rows[0]) != 3 {
		t.Fatalf("star width = %d", len(res.Rows[0]))
	}
	res = mustExec(t, s, "SELECT value FROM kv WHERE key = ? AND value <> '1'", storage.Str("a"))
	if len(res.Rows) != 1 || res.Rows[0][0].S != "3" {
		t.Fatalf("rows: %+v", res.Rows)
	}
}

func TestPlaceholderArityError(t *testing.T) {
	s := newSession(t)
	setupKV(t, s)
	if _, err := s.Exec("SELECT * FROM kv WHERE key = ?"); !errors.Is(err, ErrUnboundPlaceholder) {
		t.Fatalf("missing arg: %v", err)
	}
}

func TestUpdateDeleteWithWhere(t *testing.T) {
	s := newSession(t)
	setupKV(t, s)
	mustExec(t, s, "INSERT INTO kv (key, value) VALUES ('a', '1'), ('b', '2'), ('c', '3')")
	res := mustExec(t, s, "UPDATE kv SET value = 'X' WHERE key <> 'b'")
	if res.RowsAffected != 2 {
		t.Fatalf("updated %d", res.RowsAffected)
	}
	res = mustExec(t, s, "SELECT COUNT(*) FROM kv WHERE value = 'X'")
	if res.Rows[0][0].I != 2 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	res = mustExec(t, s, "DELETE FROM kv WHERE key = 'a'")
	if res.RowsAffected != 1 {
		t.Fatalf("deleted %d", res.RowsAffected)
	}
	if mustExec(t, s, "SELECT COUNT(*) FROM kv").Rows[0][0].I != 2 {
		t.Fatal("wrong rows after delete")
	}
}

func TestUpdateReferencesOldRowValues(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE stock (id BIGINT PRIMARY KEY, count BIGINT)")
	mustExec(t, s, "INSERT INTO stock (count) VALUES (10)")
	mustExec(t, s, "UPDATE stock SET count = count + 5 WHERE id = 1")
	if got := mustExec(t, s, "SELECT count FROM stock").Rows[0][0].I; got != 15 {
		t.Fatalf("count = %d, want 15", got)
	}
}

func TestAggregatesAndGroupBy(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE orders (id BIGINT PRIMARY KEY, cust TEXT, amount BIGINT)")
	mustExec(t, s, `INSERT INTO orders (cust, amount) VALUES
		('alice', 10), ('alice', 20), ('bob', 5), ('carol', 7), ('bob', 5)`)
	res := mustExec(t, s, `SELECT cust, COUNT(*), SUM(amount), MIN(amount), MAX(amount), AVG(amount)
		FROM orders GROUP BY cust ORDER BY cust`)
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	alice := res.Rows[0]
	if alice[0].S != "alice" || alice[1].I != 2 || alice[2].I != 30 ||
		alice[3].I != 10 || alice[4].I != 20 || alice[5].F != 15 {
		t.Fatalf("alice group: %+v", alice)
	}
	res = mustExec(t, s, "SELECT COUNT(DISTINCT amount) FROM orders")
	if res.Rows[0][0].I != 4 {
		t.Fatalf("distinct count = %v", res.Rows[0][0])
	}
	// Aggregate over zero rows yields one row: COUNT=0, SUM=NULL.
	res = mustExec(t, s, "SELECT COUNT(*), SUM(amount) FROM orders WHERE cust = 'nobody'")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 0 || !res.Rows[0][1].IsNull() {
		t.Fatalf("empty aggregate: %+v", res.Rows)
	}
}

func TestHavingFilter(t *testing.T) {
	s := newSession(t)
	setupKV(t, s)
	mustExec(t, s, "INSERT INTO kv (key, value) VALUES ('a','1'),('a','2'),('b','1')")
	// The paper's duplicate-counting query (Appendix C.2).
	res := mustExec(t, s, "SELECT key, COUNT(key)-1 FROM kv GROUP BY key HAVING COUNT(key) > 1")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "a" || res.Rows[0][1].I != 1 {
		t.Fatalf("duplicate count: %+v", res.Rows)
	}
}

func TestLeftOuterJoinOrphanQuery(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE departments (id BIGINT PRIMARY KEY, name TEXT)")
	mustExec(t, s, "CREATE TABLE users (id BIGINT PRIMARY KEY, department_id BIGINT, name TEXT)")
	mustExec(t, s, "INSERT INTO departments (id, name) VALUES (1, 'eng')")
	mustExec(t, s, `INSERT INTO users (department_id, name) VALUES
		(1, 'alice'), (2, 'orphan1'), (2, 'orphan2'), (3, 'orphan3')`)
	// The orphan-counting query from Appendix C.5, verbatim shape.
	res := mustExec(t, s, `SELECT U.department_id, COUNT(*) FROM users AS U
		LEFT OUTER JOIN departments AS D ON U.department_id = D.id
		WHERE D.id IS NULL
		GROUP BY U.department_id
		HAVING COUNT(*) > 0
		ORDER BY U.department_id`)
	if len(res.Rows) != 2 {
		t.Fatalf("orphan groups = %d: %+v", len(res.Rows), res.Rows)
	}
	if res.Rows[0][0].I != 2 || res.Rows[0][1].I != 2 {
		t.Fatalf("dept 2 orphans: %+v", res.Rows[0])
	}
	if res.Rows[1][0].I != 3 || res.Rows[1][1].I != 1 {
		t.Fatalf("dept 3 orphans: %+v", res.Rows[1])
	}
}

func TestInnerJoin(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE a (id BIGINT PRIMARY KEY, x BIGINT)")
	mustExec(t, s, "CREATE TABLE b (id BIGINT PRIMARY KEY, a_id BIGINT, y TEXT)")
	mustExec(t, s, "INSERT INTO a (id, x) VALUES (1, 10), (2, 20)")
	mustExec(t, s, "INSERT INTO b (a_id, y) VALUES (1, 'one'), (1, 'uno'), (3, 'dangling')")
	res := mustExec(t, s, "SELECT a.x, b.y FROM a JOIN b ON b.a_id = a.id ORDER BY b.y")
	if len(res.Rows) != 2 {
		t.Fatalf("join rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].I != 10 || res.Rows[0][1].S != "one" {
		t.Fatalf("join row: %+v", res.Rows[0])
	}
}

func TestTransactionsCommitAndRollback(t *testing.T) {
	s := newSession(t)
	setupKV(t, s)
	mustExec(t, s, "BEGIN")
	if !s.InTx() {
		t.Fatal("not in tx after BEGIN")
	}
	mustExec(t, s, "INSERT INTO kv (key, value) VALUES ('a', '1')")
	mustExec(t, s, "COMMIT")
	if s.InTx() {
		t.Fatal("still in tx after COMMIT")
	}
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO kv (key, value) VALUES ('b', '2')")
	mustExec(t, s, "ROLLBACK")
	if mustExec(t, s, "SELECT COUNT(*) FROM kv").Rows[0][0].I != 1 {
		t.Fatal("rollback did not discard insert")
	}
}

func TestTransactionStateErrors(t *testing.T) {
	s := newSession(t)
	if _, err := s.Exec("COMMIT"); !errors.Is(err, ErrNoActiveTx) {
		t.Fatalf("commit without begin: %v", err)
	}
	if _, err := s.Exec("ROLLBACK"); !errors.Is(err, ErrNoActiveTx) {
		t.Fatalf("rollback without begin: %v", err)
	}
	mustExec(t, s, "BEGIN")
	if _, err := s.Exec("BEGIN"); !errors.Is(err, ErrTxInProgress) {
		t.Fatalf("nested begin: %v", err)
	}
	s.Reset()
	if s.InTx() {
		t.Fatal("Reset did not clear tx")
	}
}

func TestStatementErrorAbortsExplicitTx(t *testing.T) {
	s := newSession(t)
	setupKV(t, s)
	mustExec(t, s, "BEGIN")
	if _, err := s.Exec("SELECT * FROM missing_table"); err == nil {
		t.Fatal("expected error")
	}
	if s.InTx() {
		t.Fatal("failed statement should abort the transaction")
	}
}

func TestBeginIsolationLevelApplied(t *testing.T) {
	s := newSession(t)
	setupKV(t, s)
	mustExec(t, s, "INSERT INTO kv (key, value) VALUES ('a', '1')")
	mustExec(t, s, "BEGIN ISOLATION LEVEL REPEATABLE READ")
	if got := mustExec(t, s, "SELECT COUNT(*) FROM kv").Rows[0][0].I; got != 1 {
		t.Fatal("baseline read wrong")
	}
	// A second session commits a new row; the snapshot must not see it.
	s2 := NewSession(s.DB())
	mustExec(t, s2, "INSERT INTO kv (key, value) VALUES ('b', '2')")
	if got := mustExec(t, s, "SELECT COUNT(*) FROM kv").Rows[0][0].I; got != 1 {
		t.Fatalf("repeatable read saw phantom: %d", got)
	}
	mustExec(t, s, "COMMIT")
	if got := mustExec(t, s, "SELECT COUNT(*) FROM kv").Rows[0][0].I; got != 2 {
		t.Fatal("post-commit read wrong")
	}
}

func TestUniqueConstraintViaSQL(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE u (id BIGINT PRIMARY KEY, email TEXT UNIQUE)")
	mustExec(t, s, "INSERT INTO u (email) VALUES ('x@example.com')")
	_, err := s.Exec("INSERT INTO u (email) VALUES ('x@example.com')")
	if !errors.Is(err, storage.ErrUniqueViolation) {
		t.Fatalf("duplicate: %v", err)
	}
}

func TestCreateIndexStatement(t *testing.T) {
	s := newSession(t)
	setupKV(t, s)
	mustExec(t, s, "INSERT INTO kv (key, value) VALUES ('a', '1')")
	mustExec(t, s, "CREATE UNIQUE INDEX ON kv (key)")
	if _, err := s.Exec("INSERT INTO kv (key, value) VALUES ('a', '2')"); !errors.Is(err, storage.ErrUniqueViolation) {
		t.Fatalf("index not enforced: %v", err)
	}
	mustExec(t, s, "CREATE INDEX ON kv (value)") // non-unique is fine
}

func TestForeignKeySQLRoundTrip(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE departments (id BIGINT PRIMARY KEY, name TEXT)")
	mustExec(t, s, `CREATE TABLE users (
		id BIGINT PRIMARY KEY,
		department_id BIGINT REFERENCES departments ON DELETE CASCADE)`)
	mustExec(t, s, "INSERT INTO departments (id, name) VALUES (7, 'eng')")
	mustExec(t, s, "INSERT INTO users (department_id) VALUES (7)")
	if _, err := s.Exec("INSERT INTO users (department_id) VALUES (99)"); !errors.Is(err, storage.ErrForeignKeyViolation) {
		t.Fatalf("fk violation: %v", err)
	}
	mustExec(t, s, "DELETE FROM departments WHERE id = 7")
	if got := mustExec(t, s, "SELECT COUNT(*) FROM users").Rows[0][0].I; got != 0 {
		t.Fatalf("cascade left %d users", got)
	}
}

func TestSelectForUpdateSQL(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE stock (id BIGINT PRIMARY KEY, count BIGINT)")
	mustExec(t, s, "INSERT INTO stock (count) VALUES (5)")
	mustExec(t, s, "BEGIN")
	res := mustExec(t, s, "SELECT count FROM stock WHERE id = 1 FOR UPDATE")
	if res.Rows[0][0].I != 5 {
		t.Fatal("for update read wrong")
	}
	// A second session's conflicting lock attempt times out while we hold it.
	s2 := NewSession(s.DB())
	mustExec(t, s2, "BEGIN")
	_, err := s2.Exec("SELECT count FROM stock WHERE id = 1 FOR UPDATE")
	if !errors.Is(err, storage.ErrLockTimeout) {
		t.Fatalf("conflicting FOR UPDATE: %v", err)
	}
	mustExec(t, s, "COMMIT")
}

func TestNullSemantics(t *testing.T) {
	s := newSession(t)
	setupKV(t, s)
	mustExec(t, s, "INSERT INTO kv (key, value) VALUES (NULL, 'nullkey'), ('a', NULL)")
	// NULL = NULL is not true.
	if got := mustExec(t, s, "SELECT COUNT(*) FROM kv WHERE key = NULL").Rows[0][0].I; got != 0 {
		t.Fatalf("key = NULL matched %d", got)
	}
	if got := mustExec(t, s, "SELECT COUNT(*) FROM kv WHERE key IS NULL").Rows[0][0].I; got != 1 {
		t.Fatalf("IS NULL matched %d", got)
	}
	if got := mustExec(t, s, "SELECT COUNT(*) FROM kv WHERE key IS NOT NULL").Rows[0][0].I; got != 1 {
		t.Fatalf("IS NOT NULL matched %d", got)
	}
	// COUNT(col) skips NULLs; COUNT(*) does not.
	res := mustExec(t, s, "SELECT COUNT(key), COUNT(*) FROM kv")
	if res.Rows[0][0].I != 1 || res.Rows[0][1].I != 2 {
		t.Fatalf("counts: %+v", res.Rows[0])
	}
}

func TestThreeValuedLogic(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE t (id BIGINT PRIMARY KEY, a BIGINT, b BIGINT)")
	mustExec(t, s, "INSERT INTO t (a, b) VALUES (1, NULL), (NULL, NULL), (1, 1)")
	// a = 1 AND b = 1: only the fully non-null row qualifies.
	if got := mustExec(t, s, "SELECT COUNT(*) FROM t WHERE a = 1 AND b = 1").Rows[0][0].I; got != 1 {
		t.Fatalf("AND with NULL: %d", got)
	}
	// a = 1 OR b = 1: rows 1 and 3 (row 2 is NULL OR NULL -> NULL).
	if got := mustExec(t, s, "SELECT COUNT(*) FROM t WHERE a = 1 OR b = 1").Rows[0][0].I; got != 2 {
		t.Fatalf("OR with NULL: %d", got)
	}
	// NOT (a = 1): NULL rows don't qualify.
	if got := mustExec(t, s, "SELECT COUNT(*) FROM t WHERE NOT (a = 1)").Rows[0][0].I; got != 0 {
		t.Fatalf("NOT with NULL: %d", got)
	}
}

func TestInAndLikeExecution(t *testing.T) {
	s := newSession(t)
	setupKV(t, s)
	mustExec(t, s, "INSERT INTO kv (key, value) VALUES ('apple','1'),('banana','2'),('cherry','3')")
	if got := mustExec(t, s, "SELECT COUNT(*) FROM kv WHERE key IN ('apple', 'cherry')").Rows[0][0].I; got != 2 {
		t.Fatalf("IN: %d", got)
	}
	if got := mustExec(t, s, "SELECT COUNT(*) FROM kv WHERE key LIKE 'a%'").Rows[0][0].I; got != 1 {
		t.Fatalf("LIKE prefix: %d", got)
	}
	if got := mustExec(t, s, "SELECT COUNT(*) FROM kv WHERE key LIKE '%an%'").Rows[0][0].I; got != 1 {
		t.Fatalf("LIKE infix: %d", got)
	}
	if got := mustExec(t, s, "SELECT COUNT(*) FROM kv WHERE key LIKE '_pple'").Rows[0][0].I; got != 1 {
		t.Fatalf("LIKE underscore: %d", got)
	}
	if got := mustExec(t, s, "SELECT COUNT(*) FROM kv WHERE key NOT LIKE '%a%'").Rows[0][0].I; got != 1 {
		t.Fatalf("NOT LIKE: %d", got)
	}
}

func TestLikeMatcher(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"abc", "abc", true}, {"abc", "a%", true}, {"abc", "%c", true},
		{"abc", "%b%", true}, {"abc", "a_c", true}, {"abc", "_", false},
		{"", "%", true}, {"", "_", false}, {"abc", "", false},
		{"aXbXc", "a%b%c", true}, {"mississippi", "%ss%ss%", true},
		{"abc", "ABC", false},
	}
	for _, c := range cases {
		if got := LikeMatch(c.s, c.p); got != c.want {
			t.Errorf("LikeMatch(%q, %q) = %v", c.s, c.p, got)
		}
	}
}

// likeMatchRef is the recursive backtracking matcher LikeMatch replaced:
// obviously right, exponential on patterns with many %s.
func likeMatchRef(s, pattern string) bool {
	var match func(si, pi int) bool
	match = func(si, pi int) bool {
		for pi < len(pattern) {
			switch pattern[pi] {
			case '%':
				for pi < len(pattern) && pattern[pi] == '%' {
					pi++
				}
				if pi == len(pattern) {
					return true
				}
				for k := si; k <= len(s); k++ {
					if match(k, pi) {
						return true
					}
				}
				return false
			case '_':
				if si >= len(s) {
					return false
				}
				si++
				pi++
			default:
				if si >= len(s) || s[si] != pattern[pi] {
					return false
				}
				si++
				pi++
			}
		}
		return si == len(s)
	}
	return match(0, 0)
}

// TestLikeMatchAgreesWithReference checks LikeMatch against the recursive
// reference on random short strings and patterns over a, b, % and _.
func TestLikeMatchAgreesWithReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2015))
	word := func(alphabet string) string {
		b := make([]byte, rng.Intn(8))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for i := 0; i < 20000; i++ {
		s, p := word("ab%_"), word("ab%_")
		if got, want := LikeMatch(s, p), likeMatchRef(s, p); got != want {
			t.Fatalf("LikeMatch(%q, %q) = %v, reference %v", s, p, got, want)
		}
	}
}

// TestLikeMatchLinear: a pattern any client can send as a LIKE argument must
// not take exponential time. The backtracking matcher took 0.55 s on this
// input, and 22 s with 12 "%a" pairs against 36 a's.
func TestLikeMatchLinear(t *testing.T) {
	s, p := strings.Repeat("a", 30), strings.Repeat("%a", 10)+"b"
	start := time.Now()
	if LikeMatch(s, p) {
		t.Fatalf("LikeMatch(%q, %q) = true", s, p)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("LikeMatch took %v on a pathological pattern, want <= 50ms", d)
	}
}

func TestArithmeticAndConcat(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE n (id BIGINT PRIMARY KEY, x BIGINT, y DOUBLE)")
	mustExec(t, s, "INSERT INTO n (x, y) VALUES (7, 2.5)")
	res := mustExec(t, s, "SELECT x + 1, x - 1, x * 2, x / 2, x % 3, x + y FROM n")
	row := res.Rows[0]
	wants := []storage.Value{storage.Int(8), storage.Int(6), storage.Int(14),
		storage.Int(3), storage.Int(1), storage.Float(9.5)}
	for i, w := range wants {
		if !storage.Equal(row[i], w) {
			t.Errorf("expr %d = %v, want %v", i, row[i], w)
		}
	}
	res = mustExec(t, s, "SELECT 'a' || 'b' || x FROM n")
	if res.Rows[0][0].S != "ab7" {
		t.Fatalf("concat: %v", res.Rows[0][0])
	}
	if _, err := s.Exec("SELECT x / 0 FROM n"); err == nil {
		t.Fatal("division by zero should error")
	}
}

func TestOrderLimitOffsetExecution(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE n (id BIGINT PRIMARY KEY, x BIGINT)")
	for i := 1; i <= 10; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO n (x) VALUES (%d)", i))
	}
	res := mustExec(t, s, "SELECT x FROM n ORDER BY x DESC LIMIT 3 OFFSET 2")
	if len(res.Rows) != 3 || res.Rows[0][0].I != 8 || res.Rows[2][0].I != 6 {
		t.Fatalf("rows: %+v", res.Rows)
	}
	// LIMIT beyond the result set.
	res = mustExec(t, s, "SELECT x FROM n WHERE x > 8 LIMIT 100")
	if len(res.Rows) != 2 {
		t.Fatalf("limit overflow: %d rows", len(res.Rows))
	}
	// OFFSET beyond the result set.
	res = mustExec(t, s, "SELECT x FROM n LIMIT 5 OFFSET 100")
	if len(res.Rows) != 0 {
		t.Fatalf("offset overflow: %d rows", len(res.Rows))
	}
}

func TestShowTablesAndDrop(t *testing.T) {
	s := newSession(t)
	setupKV(t, s)
	mustExec(t, s, "CREATE TABLE zzz (id BIGINT PRIMARY KEY)")
	res := mustExec(t, s, "SHOW TABLES")
	if len(res.Rows) != 2 || res.Rows[0][0].S != "kv" || res.Rows[1][0].S != "zzz" {
		t.Fatalf("tables: %+v", res.Rows)
	}
	mustExec(t, s, "DROP TABLE zzz")
	if len(mustExec(t, s, "SHOW TABLES").Rows) != 1 {
		t.Fatal("drop did not remove table")
	}
}

func TestAmbiguousAndUnknownColumns(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE a (id BIGINT PRIMARY KEY, x BIGINT)")
	mustExec(t, s, "CREATE TABLE b (id BIGINT PRIMARY KEY, x BIGINT)")
	mustExec(t, s, "INSERT INTO a (x) VALUES (1)")
	mustExec(t, s, "INSERT INTO b (x) VALUES (1)")
	if _, err := s.Exec("SELECT x FROM a JOIN b ON a.id = b.id"); !errors.Is(err, ErrAmbiguousColumn) {
		t.Fatalf("ambiguous: %v", err)
	}
	if _, err := s.Exec("SELECT ghost FROM a"); !errors.Is(err, ErrUnknownColumn) {
		t.Fatalf("unknown: %v", err)
	}
}

func TestAggregateOutsideGroupingFails(t *testing.T) {
	s := newSession(t)
	setupKV(t, s)
	mustExec(t, s, "INSERT INTO kv (key, value) VALUES ('a', '1')")
	if _, err := s.Exec("SELECT * FROM kv WHERE COUNT(*) > 0"); err == nil {
		t.Fatal("aggregate in WHERE should fail")
	}
}

func TestDefaultColumnViaSQL(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE d (id BIGINT PRIMARY KEY, state TEXT DEFAULT 'new', n BIGINT DEFAULT 3)")
	mustExec(t, s, "INSERT INTO d (id) VALUES (1)")
	res := mustExec(t, s, "SELECT state, n FROM d")
	if res.Rows[0][0].S != "new" || res.Rows[0][1].I != 3 {
		t.Fatalf("defaults: %+v", res.Rows[0])
	}
}

func TestJoinProbePushdownCorrectness(t *testing.T) {
	// The same join computed with and without an index must agree; the
	// indexed path exercises joinProbe.
	build := func(withIndex bool) *Session {
		s := newSession(t)
		mustExec(t, s, "CREATE TABLE d (id BIGINT PRIMARY KEY, name TEXT)")
		mustExec(t, s, "CREATE TABLE u (id BIGINT PRIMARY KEY, d_id BIGINT)")
		for i := 1; i <= 20; i++ {
			mustExec(t, s, fmt.Sprintf("INSERT INTO d (id, name) VALUES (%d, 'n%d')", i, i))
		}
		for i := 0; i < 100; i++ {
			mustExec(t, s, fmt.Sprintf("INSERT INTO u (d_id) VALUES (%d)", i%25+1)) // some dangling
		}
		mustExec(t, s, "DELETE FROM d WHERE id > 15")
		if withIndex {
			mustExec(t, s, "CREATE INDEX ON u (d_id)")
		}
		return s
	}
	query := `SELECT COUNT(*) FROM u AS U LEFT OUTER JOIN d AS D ON U.d_id = D.id WHERE D.id IS NULL`
	a := mustExec(t, build(false), query).Rows[0][0].I
	b := mustExec(t, build(true), query).Rows[0][0].I
	if a != b {
		t.Fatalf("index changed join result: %d vs %d", a, b)
	}
	if a != 40 { // d_id in 16..25 dangling: 10 values x 4 users each
		t.Fatalf("orphans = %d, want 40", a)
	}
}

func TestJoinProbeReversedAndConjunct(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE a (id BIGINT PRIMARY KEY, x BIGINT)")
	mustExec(t, s, "CREATE TABLE b (id BIGINT PRIMARY KEY, a_id BIGINT, flag BOOLEAN)")
	mustExec(t, s, "INSERT INTO a (id, x) VALUES (1, 10), (2, 20)")
	mustExec(t, s, "INSERT INTO b (a_id, flag) VALUES (1, TRUE), (1, FALSE), (2, TRUE)")
	// Reversed equality plus an extra conjunct.
	res := mustExec(t, s, `SELECT a.x FROM a JOIN b ON a.id = b.a_id AND b.flag = TRUE ORDER BY a.x`)
	if len(res.Rows) != 2 || res.Rows[0][0].I != 10 || res.Rows[1][0].I != 20 {
		t.Fatalf("rows: %+v", res.Rows)
	}
}

// TestStreamingSelectMatchesOrderedPath runs single-table queries through the
// streaming path and, with ORDER BY id appended, through the materialising
// one: same rows either way, whether column references resolve by position
// (prepared plan) or by name (one-shot Exec).
func TestStreamingSelectMatchesOrderedPath(t *testing.T) {
	s := newSession(t)
	mustExec(t, s, "CREATE TABLE n (id BIGINT PRIMARY KEY, x BIGINT, tag TEXT)")
	for i := 1; i <= 12; i++ {
		mustExec(t, s, "INSERT INTO n (x, tag) VALUES (?, ?)", storage.Int(int64(i%5)), storage.Str(fmt.Sprint("t", i%3)))
	}
	cases := []struct {
		sel, rest string
		args      []storage.Value
		want      int
	}{
		{"SELECT * FROM n", "", nil, 12},
		{"SELECT id, x + 1 FROM n WHERE x > 1", "", nil, 7},
		{"SELECT m.id FROM n m WHERE m.tag = ? AND m.x <> 0", "", []storage.Value{storage.Str("t1")}, 3},
		{"SELECT id FROM n WHERE tag = 't0'", "LIMIT 2", nil, 2},
		{"SELECT id FROM n WHERE x = 2", "LIMIT 5 OFFSET 1", nil, 2},
		{"SELECT id FROM n", "LIMIT ? OFFSET ?", []storage.Value{storage.Int(3), storage.Int(10)}, 2},
		{"SELECT id FROM n", "LIMIT 0", nil, 0},
		{"SELECT id FROM n WHERE tag IS NULL", "LIMIT 1", nil, 0},
	}
	for _, c := range cases {
		stream, ordered := c.sel+" "+c.rest, c.sel+" ORDER BY id "+c.rest
		want := mustExec(t, s, ordered, c.args...)
		if len(want.Rows) != c.want {
			t.Fatalf("%s: %d rows, want %d", ordered, len(want.Rows), c.want)
		}
		p, err := s.Prepare(stream)
		if err != nil {
			t.Fatal(err)
		}
		prepared, err := s.ExecutePrepared(p, c.args...)
		if err != nil {
			t.Fatalf("%s: %v", stream, err)
		}
		for name, got := range map[string]*Result{"by name": mustExec(t, s, stream, c.args...), "by position": prepared} {
			if fmt.Sprint(got.Columns, got.Rows) != fmt.Sprint(want.Columns, want.Rows) {
				t.Errorf("%s (%s):\n got %v %v\nwant %v %v", stream, name, got.Columns, got.Rows, want.Columns, want.Rows)
			}
		}
	}
	for _, bad := range []string{"SELECT nope FROM n", "SELECT id FROM n m WHERE n.x = 1"} {
		p, err := s.Prepare(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.ExecutePrepared(p); !errors.Is(err, ErrUnknownColumn) {
			t.Errorf("%s: err = %v, want ErrUnknownColumn", bad, err)
		}
	}
}

// TestStreamingLimitStopsTheScan: once LIMIT is satisfied the scan ends, so a
// probe reads (and under 2PL would lock) only the rows it returns.
func TestStreamingLimitStopsTheScan(t *testing.T) {
	store := storage.Open(storage.Options{RecordHistory: true})
	s := NewSession(store)
	mustExec(t, s, "CREATE TABLE n (id BIGINT PRIMARY KEY, x BIGINT)")
	for i := 0; i < 10; i++ {
		mustExec(t, s, "INSERT INTO n (x) VALUES (7)")
	}
	for _, c := range []struct {
		sql   string
		reads int
	}{
		{"SELECT id FROM n WHERE x = 7 LIMIT 2", 2},
		{"SELECT id FROM n LIMIT 3 OFFSET 4", 7},
		{"SELECT id FROM n WHERE x = 7", 10},
	} {
		store.ResetHistory()
		mustExec(t, s, c.sql)
		reads := 0
		for _, e := range store.History() {
			if e.Kind == histcheck.KindRead {
				reads++
			}
		}
		if reads != c.reads {
			t.Errorf("%s: %d row reads, want %d", c.sql, reads, c.reads)
		}
	}
}

// TestNegativeLimitOffsetRejected: a negative LIMIT or OFFSET is an error (it
// used to panic slicing the result), on both SELECT paths, and an autocommit
// statement that fails this way leaves no transaction behind.
func TestNegativeLimitOffsetRejected(t *testing.T) {
	store := storage.Open(storage.Options{})
	s := NewSession(store)
	mustExec(t, s, "CREATE TABLE n (id BIGINT PRIMARY KEY, x BIGINT)")
	mustExec(t, s, "INSERT INTO n (x) VALUES (1)")
	for _, sql := range []string{
		"SELECT x FROM n LIMIT ?",
		"SELECT x FROM n LIMIT 1 OFFSET ?",
		"SELECT x FROM n ORDER BY x LIMIT ?",
		"SELECT COUNT(*) FROM n OFFSET ?",
	} {
		_, err := s.Exec(sql, storage.Int(-1))
		if err == nil || !strings.Contains(err.Error(), "must not be negative") {
			t.Errorf("%s with -1: err = %v", sql, err)
		}
		if s.InTx() {
			t.Fatalf("%s: failed autocommit statement left a transaction open", sql)
		}
	}
	mustExec(t, s, "INSERT INTO n (x) VALUES (2)")
	if v := store.Vacuum(); v.Horizon != store.Clock() {
		t.Fatalf("a rejected statement leaked its transaction: vacuum horizon %d, clock %d", v.Horizon, store.Clock())
	}
	mustExec(t, s, "BEGIN")
	if _, err := s.Exec("SELECT x FROM n LIMIT ?", storage.Int(-1)); err == nil || s.InTx() {
		t.Fatalf("inside a transaction: err = %v, still in tx = %v (want error and abort)", err, s.InTx())
	}
}
