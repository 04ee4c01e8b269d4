package db

import (
	"errors"
	"testing"

	"feralcc/internal/storage"
)

func TestOpenConnectExec(t *testing.T) {
	d := Open(storage.Options{})
	conn := d.Connect()
	defer conn.Close()
	if _, err := conn.Exec("CREATE TABLE t (id BIGINT PRIMARY KEY, x BIGINT)"); err != nil {
		t.Fatal(err)
	}
	res, err := conn.Exec("INSERT INTO t (x) VALUES (?)", storage.Int(5))
	if err != nil || res.LastInsertID != 1 {
		t.Fatalf("%+v %v", res, err)
	}
	res, err = conn.Exec("SELECT x FROM t")
	if err != nil || res.Rows[0][0].I != 5 {
		t.Fatalf("%+v %v", res, err)
	}
}

func TestConnClosedRejectsUse(t *testing.T) {
	d := Open(storage.Options{})
	conn := d.Connect()
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec("SHOW TABLES"); err == nil {
		t.Fatal("closed conn accepted a statement")
	}
	if err := conn.Close(); err != nil {
		t.Fatal("double close should be fine")
	}
}

func TestCloseRollsBackOpenTx(t *testing.T) {
	d := Open(storage.Options{})
	if err := d.ExecScript("CREATE TABLE t (id BIGINT PRIMARY KEY, x BIGINT)"); err != nil {
		t.Fatal(err)
	}
	conn := d.Connect()
	_, _ = conn.Exec("BEGIN")
	_, _ = conn.Exec("INSERT INTO t (x) VALUES (1)")
	conn.Close()

	check := d.Connect()
	defer check.Close()
	res, err := check.Exec("SELECT COUNT(*) FROM t")
	if err != nil || res.Rows[0][0].I != 0 {
		t.Fatalf("close did not roll back: %+v %v", res, err)
	}
}

func TestExecScript(t *testing.T) {
	d := Open(storage.Options{})
	script := `
		CREATE TABLE a (id BIGINT PRIMARY KEY, s TEXT);
		INSERT INTO a (s) VALUES ('semi;colon; inside literal');
		INSERT INTO a (s) VALUES ('two');
	`
	if err := d.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	conn := d.Connect()
	defer conn.Close()
	res, _ := conn.Exec("SELECT COUNT(*) FROM a")
	if res.Rows[0][0].I != 2 {
		t.Fatalf("script inserted %v rows", res.Rows[0][0])
	}
	res, _ = conn.Exec("SELECT s FROM a ORDER BY id LIMIT 1")
	if res.Rows[0][0].S != "semi;colon; inside literal" {
		t.Fatalf("literal split: %q", res.Rows[0][0].S)
	}
	if err := d.ExecScript("CREATE TABLE broken ("); err == nil {
		t.Fatal("bad script should fail")
	}
}

func TestExecScriptSkipsLineComments(t *testing.T) {
	d := Open(storage.Options{})
	script := `
		-- schema for the comment test
		CREATE TABLE a (id BIGINT PRIMARY KEY, s TEXT); -- trailing comment; with semicolons
		INSERT INTO a (s) VALUES ('one'); -- INSERT INTO a (s) VALUES ('commented out');
		INSERT INTO a (s) VALUES ('has -- inside literal');
		-- INSERT INTO a (s) VALUES ('fully commented');
	`
	if err := d.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	conn := d.Connect()
	defer conn.Close()
	res, _ := conn.Exec("SELECT COUNT(*) FROM a")
	if res.Rows[0][0].I != 2 {
		t.Fatalf("comment handling inserted %v rows, want 2", res.Rows[0][0])
	}
	res, _ = conn.Exec("SELECT s FROM a ORDER BY id DESC LIMIT 1")
	if res.Rows[0][0].S != "has -- inside literal" {
		t.Fatalf("comment stripped inside string literal: %q", res.Rows[0][0].S)
	}
}

func TestSplitScriptComments(t *testing.T) {
	stmts, err := splitScript("SELECT 1 -- tail\n; -- whole line\nSELECT 2")
	if err != nil || len(stmts) != 2 {
		t.Fatalf("split: %q %v", stmts, err)
	}
}

func TestWrapSharesStore(t *testing.T) {
	store := storage.Open(storage.Options{})
	d := Wrap(store)
	if d.Store() != store {
		t.Fatal("Wrap should retain the store")
	}
	if err := d.ExecScript("CREATE TABLE t (id BIGINT PRIMARY KEY)"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Table("t"); err != nil {
		t.Fatal("table not visible through shared store")
	}
}

func TestSentinelErrorsPassThrough(t *testing.T) {
	d := Open(storage.Options{})
	_ = d.ExecScript("CREATE TABLE u (id BIGINT PRIMARY KEY, e TEXT UNIQUE); INSERT INTO u (e) VALUES ('x')")
	conn := d.Connect()
	defer conn.Close()
	_, err := conn.Exec("INSERT INTO u (e) VALUES ('x')")
	if !errors.Is(err, storage.ErrUniqueViolation) {
		t.Fatalf("sentinel lost: %v", err)
	}
}

// TestFullScanProbeAllocs pins what the feral uniqueness probe costs the
// allocator when the key column has no index: a small constant, the same for
// a table ten times the size. The scan filters committed rows in place and
// copies only the one that matches; a per-row copy, id list or environment
// would show up here as thousands.
func TestFullScanProbeAllocs(t *testing.T) {
	probeAllocs := func(rows int) float64 {
		d := Open(storage.Options{})
		conn := d.Connect()
		defer conn.Close()
		if _, err := conn.Exec("CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT)"); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Exec("BEGIN"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if _, err := conn.Exec("INSERT INTO kv (key) VALUES (?)", storage.Int(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := conn.Exec("COMMIT"); err != nil {
			t.Fatal(err)
		}
		key := storage.Str("1000")
		return testing.AllocsPerRun(20, func() {
			res, err := conn.Exec("SELECT id FROM kv WHERE key = ? LIMIT 2", key)
			if err != nil || len(res.Rows) != 1 {
				t.Fatalf("probe: %+v %v", res, err)
			}
		})
	}
	small, large := probeAllocs(2000), probeAllocs(20000)
	if small != large || small > 40 {
		t.Fatalf("full-scan probe allocates %.0f times over 2,000 rows and %.0f over 20,000; want equal and at most 40", small, large)
	}
}
