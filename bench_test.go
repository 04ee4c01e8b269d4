// Package feralcc_test holds the benchmark harness: one testing.B benchmark
// per paper table and figure (regenerating its data at reduced scale; run
// cmd/feralbench for paper-scale sweeps with rendered output), plus
// ablation benchmarks for the design decisions called out in DESIGN.md.
package feralcc_test

import (
	"fmt"
	"testing"
	"time"

	"feralcc/internal/appserver"
	"feralcc/internal/corpus"
	"feralcc/internal/db"
	"feralcc/internal/experiment"
	"feralcc/internal/iconfluence"
	"feralcc/internal/railsscan"
	"feralcc/internal/sqlexec"
	"feralcc/internal/sqlfront"
	"feralcc/internal/storage"
	"feralcc/internal/wire"
	"feralcc/internal/workload"
)

// --- Table 1 / Table 2 / Figure 1: the corpus pipeline -----------------------

func BenchmarkTable2Scan(b *testing.B) {
	c := corpus.Generate(2015)
	rendered := make([]map[string]string, len(c.Apps))
	for i, app := range c.Apps {
		rendered[i] = app.Render()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for j, app := range c.Apps {
			total += railsscan.Scan(app.Stats.Name, rendered[j]).Validations
		}
		if total != 3505 {
			b.Fatalf("scan drifted: %d validations", total)
		}
	}
}

func BenchmarkTable1Classification(b *testing.B) {
	c := corpus.Generate(2015)
	var counts []*railsscan.Counts
	for _, app := range c.Apps {
		counts = append(counts, railsscan.Scan(app.Stats.Name, app.Render()))
	}
	usages := railsscan.MergeInvariants(counts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := iconfluence.Analyze(usages)
		if rep.TotalBuiltIn != 3445 {
			b.Fatal("classification drifted")
		}
	}
}

func BenchmarkFig1MechanismIntensity(b *testing.B) {
	a := experiment.RunCorpusAnalysis(2015)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, _ := experiment.Figure1(a.Counts)
		if len(rows) != 67 {
			b.Fatal("row count drifted")
		}
	}
}

// --- Figures 2-5: the anomaly experiments (reduced scale) --------------------

func BenchmarkFig2UniquenessStress(b *testing.B) {
	cfg := experiment.StressConfig{
		Workers:     []int{8},
		Concurrency: 16,
		Rounds:      10,
		CellEnv:     experiment.CellEnv{Isolation: storage.ReadCommitted, ThinkTime: 500 * time.Microsecond},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunUniquenessStress(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3UniquenessWorkload(b *testing.B) {
	cfg := experiment.WorkloadConfig{
		KeySpaces:     []int64{100},
		Distributions: []string{workload.YCSBZipfian},
		Clients:       16,
		OpsPerClient:  20,
		Workers:       16,
		Seed:          2015,
		CellEnv:       experiment.CellEnv{Isolation: storage.ReadCommitted, ThinkTime: 200 * time.Microsecond},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunUniquenessWorkload(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4AssociationStress(b *testing.B) {
	cfg := experiment.AssociationStressConfig{
		Workers:              []int{8},
		Departments:          10,
		InsertsPerDepartment: 16,
		CellEnv:              experiment.CellEnv{Isolation: storage.ReadCommitted, ThinkTime: 500 * time.Microsecond},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunAssociationStress(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5AssociationWorkload(b *testing.B) {
	cfg := experiment.AssociationWorkloadConfig{
		DepartmentCounts: []int{10},
		Clients:          8,
		Ops:              20,
		Workers:          8,
		Seed:             2015,
		CellEnv:          experiment.CellEnv{Isolation: storage.ReadCommitted, ThinkTime: 200 * time.Microsecond},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunAssociationWorkload(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 6-7: longitudinal and authorship analyses -----------------------

func BenchmarkFig6HistoryReplay(b *testing.B) {
	c := corpus.Generate(2015)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points := experiment.RunHistoryAnalysis(c, 5)
		if len(points) != 5 {
			b.Fatal("snapshot count drifted")
		}
	}
}

func BenchmarkFig7Authorship(b *testing.B) {
	c := corpus.Generate(2015)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := experiment.RunAuthorshipAnalysis(c)
		if sum.CommitAuthorShare95 <= 0 {
			b.Fatal("authorship drifted")
		}
	}
}

// --- Footnote 8 --------------------------------------------------------------

func BenchmarkSSIBug(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunSSIBug(experiment.CellEnv{ThinkTime: time.Millisecond}, 8, 10, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation 1: isolation level (DESIGN.md) ----------------------------------

func BenchmarkAblationIsolation(b *testing.B) {
	levels := []storage.IsolationLevel{
		storage.ReadCommitted, storage.RepeatableRead, storage.SnapshotIsolation,
		storage.Serializable, storage.Serializable2PL,
	}
	for _, level := range levels {
		b.Run(level.String(), func(b *testing.B) {
			d := db.Open(storage.Options{DefaultIsolation: level, LockTimeout: 2 * time.Second})
			// The probe column is indexed so per-op cost stays O(1) as b.N
			// grows; the full-scan-vs-index cost is Ablation 3's subject.
			if err := d.ExecScript("CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT, value TEXT); CREATE INDEX ON kv (key)"); err != nil {
				b.Fatal(err)
			}
			conn := d.Connect()
			defer conn.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The feral validate-then-insert sequence on a fresh key.
				key := storage.Str(fmt.Sprintf("k%d", i))
				if _, err := conn.Exec("BEGIN"); err != nil {
					b.Fatal(err)
				}
				if _, err := conn.Exec("SELECT 1 FROM kv WHERE key = ? LIMIT 1", key); err != nil {
					b.Fatal(err)
				}
				if _, err := conn.Exec("INSERT INTO kv (key, value) VALUES (?, 'v')", key); err != nil {
					b.Fatal(err)
				}
				if _, err := conn.Exec("COMMIT"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation 2: feral vs in-database constraint placement --------------------

func BenchmarkAblationConstraintPlacement(b *testing.B) {
	for _, mode := range []string{"feral-validation", "in-db-unique-index"} {
		b.Run(mode, func(b *testing.B) {
			d := db.Open(storage.Options{})
			schema := "CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT"
			if mode == "in-db-unique-index" {
				schema += " UNIQUE"
			}
			schema += ")"
			if mode == "feral-validation" {
				schema += "; CREATE INDEX ON kv (key)"
			}
			if err := d.ExecScript(schema); err != nil {
				b.Fatal(err)
			}
			conn := d.Connect()
			defer conn.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := storage.Str(fmt.Sprintf("k%d", i))
				if mode == "feral-validation" {
					if _, err := conn.Exec("SELECT 1 FROM kv WHERE key = ? LIMIT 1", key); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := conn.Exec("INSERT INTO kv (key) VALUES (?)", key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation 3: index presence on the validation probe ------------------------

func BenchmarkAblationIndex(b *testing.B) {
	// The probe finds one row among `rows`. A full-scan probe's time is
	// linear in the table and its allocations are not (TestFullScanProbeAllocs
	// in internal/db pins that); an indexed probe depends on neither.
	probe := func(rows int, indexed bool) func(*testing.B) {
		return func(b *testing.B) {
			d := db.Open(storage.Options{})
			if err := d.ExecScript("CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT)"); err != nil {
				b.Fatal(err)
			}
			conn := d.Connect()
			defer conn.Close()
			for i := 0; i < rows; i++ {
				if _, err := conn.Exec("INSERT INTO kv (key) VALUES (?)",
					storage.Str(fmt.Sprintf("k%d", i))); err != nil {
					b.Fatal(err)
				}
			}
			if indexed {
				if _, err := conn.Exec("CREATE INDEX ON kv (key)"); err != nil {
					b.Fatal(err)
				}
			}
			key := storage.Str(fmt.Sprintf("k%d", rows/2))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := conn.Exec("SELECT 1 FROM kv WHERE key = ? LIMIT 1", key); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("full-scan-probe", func(b *testing.B) {
		b.Run("rows=2000", probe(2000, false))
		b.Run("rows=20000", probe(20000, false))
	})
	b.Run("indexed-probe", probe(2000, true))
}

// --- Ablation 4: embedded vs wire-protocol connection ---------------------------

func BenchmarkAblationWire(b *testing.B) {
	store := storage.Open(storage.Options{})
	if err := db.Wrap(store).ExecScript("CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT)"); err != nil {
		b.Fatal(err)
	}
	b.Run("embedded", func(b *testing.B) {
		conn := db.Wrap(store).Connect()
		defer conn.Close()
		for i := 0; i < b.N; i++ {
			if _, err := conn.Exec("SELECT COUNT(*) FROM kv"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("embedded-prepared", func(b *testing.B) {
		conn := db.Wrap(store).Connect()
		defer conn.Close()
		stmt, err := conn.Prepare("SELECT COUNT(*) FROM kv")
		if err != nil {
			b.Fatal(err)
		}
		defer stmt.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := stmt.Exec(); err != nil {
				b.Fatal(err)
			}
		}
	})
	srv := wire.NewServer(store, nil)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	b.Run("tcp", func(b *testing.B) {
		client, err := wire.Dial(srv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer client.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.Exec("SELECT COUNT(*) FROM kv"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tcp-prepared", func(b *testing.B) {
		client, err := wire.Dial(srv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer client.Close()
		stmt, err := client.Prepare("SELECT COUNT(*) FROM kv")
		if err != nil {
			b.Fatal(err)
		}
		defer stmt.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := stmt.Exec(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- The prepare/execute seam: what does skipping the parser buy? ---------------

// BenchmarkPreparedVsParsed isolates the per-statement cost of the three
// query paths that now exist: parse-per-call (the pre-refactor behavior,
// still reachable via a raw sqlexec session), the SQL-text plan cache behind
// Conn.Exec, and an explicit prepared statement handle.
func BenchmarkPreparedVsParsed(b *testing.B) {
	const q = "SELECT key FROM kv WHERE id = ?"
	setup := func(b *testing.B) *db.DB {
		d := db.Open(storage.Options{})
		if err := d.ExecScript("CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT)"); err != nil {
			b.Fatal(err)
		}
		conn := d.Connect()
		defer conn.Close()
		for i := 0; i < 100; i++ {
			if _, err := conn.Exec("INSERT INTO kv (key) VALUES (?)",
				storage.Str(fmt.Sprintf("k%d", i))); err != nil {
				b.Fatal(err)
			}
		}
		return d
	}
	b.Run("parsed", func(b *testing.B) {
		sess := sqlexec.NewSession(setup(b).Store())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.Exec(q, storage.Int(int64(i%100)+1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached-exec", func(b *testing.B) {
		conn := setup(b).Connect()
		defer conn.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := conn.Exec(q, storage.Int(int64(i%100)+1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		conn := setup(b).Connect()
		defer conn.Close()
		stmt, err := conn.Prepare(q)
		if err != nil {
			b.Fatal(err)
		}
		defer stmt.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := stmt.Exec(storage.Int(int64(i%100) + 1)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Substrate micro-benchmarks -------------------------------------------------

func BenchmarkStorageInsertCommit(b *testing.B) {
	store := storage.Open(storage.Options{})
	if err := store.CreateTable(&storage.Schema{Name: "t", Columns: []storage.Column{
		{Name: "id", Kind: storage.KindInt, PrimaryKey: true},
		{Name: "v", Kind: storage.KindString},
	}}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := store.BeginDefault()
		if _, _, err := tx.Insert("t", map[string]storage.Value{"v": storage.Str("x")}); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSQLParse(b *testing.B) {
	const q = `SELECT U.department_id, COUNT(*) FROM users AS U
		LEFT OUTER JOIN departments AS D ON U.department_id = D.id
		WHERE D.id IS NULL GROUP BY U.department_id HAVING COUNT(*) > 0`
	for i := 0; i < b.N; i++ {
		if _, err := sqlfront.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkORMValidatedCreate measures one validated create — the feral
// uniqueness probe (a full scan: the table has no index on key), then the
// insert — against a table of ormCreatePreload to ormCreatePreload+
// ormCreateWindow rows: the stack is rebuilt, with the timer stopped, every
// ormCreateWindow creates, so ns/op does not depend on b.N.
func BenchmarkORMValidatedCreate(b *testing.B) {
	const ormCreatePreload, ormCreateWindow = 2000, 500
	registry, err := appserver.UniquenessModels()
	if err != nil {
		b.Fatal(err)
	}
	var pool *appserver.Pool
	rebuild := func() {
		if pool != nil {
			pool.Close()
		}
		d := db.Open(storage.Options{})
		if err := appserver.MigrateOn(d, registry); err != nil {
			b.Fatal(err)
		}
		conn := d.Connect()
		defer conn.Close()
		for i := 0; i < ormCreatePreload; i++ {
			if _, err := conn.Exec("INSERT INTO validated_key_values (key, value) VALUES (?, 'v')",
				storage.Str(fmt.Sprintf("preload%d", i))); err != nil {
				b.Fatal(err)
			}
		}
		if pool, err = appserver.NewPool(1, registry, func() db.Conn { return d.Connect() }); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < b.N; i++ {
		if i%ormCreateWindow == 0 {
			b.StopTimer()
			rebuild()
			b.StartTimer()
		}
		key := fmt.Sprintf("k%d", i)
		err := pool.Do(func(w *appserver.Worker) error {
			_, err := w.Session.Create("ValidatedKeyValue", map[string]storage.Value{
				"key": storage.Str(key), "value": storage.Str("v"),
			})
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	pool.Close()
}

func BenchmarkZipfianNext(b *testing.B) {
	g, err := workload.New(workload.YCSBZipfian, 1000000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Next()
	}
}

func BenchmarkCorpusGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := corpus.Generate(int64(i))
		if len(c.Apps) != 67 {
			b.Fatal("app count drifted")
		}
	}
}
