package appserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"feralcc/internal/db"
	"feralcc/internal/obs"
	"feralcc/internal/orm"
	"feralcc/internal/storage"
)

func newStack(t *testing.T, registry *orm.Registry, workers int) (*db.DB, *Pool) {
	t.Helper()
	d := db.Open(storage.Options{LockTimeout: 500 * time.Millisecond})
	if err := MigrateOn(d, registry); err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(workers, registry, func() db.Conn { return d.Connect() })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	return d, pool
}

func TestPoolSizeValidation(t *testing.T) {
	reg, err := UniquenessModels()
	if err != nil {
		t.Fatal(err)
	}
	d := db.Open(storage.Options{})
	if _, err := NewPool(0, reg, func() db.Conn { return d.Connect() }); err == nil {
		t.Fatal("zero-size pool accepted")
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	reg, _ := UniquenessModels()
	_, pool := newStack(t, reg, 2)
	requests := mPoolRequests.Value()
	var mu sync.Mutex
	active, maxActive := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = pool.Do(func(w *Worker) error {
				mu.Lock()
				active++
				if active > maxActive {
					maxActive = active
				}
				mu.Unlock()
				time.Sleep(5 * time.Millisecond)
				mu.Lock()
				active--
				mu.Unlock()
				return nil
			})
		}()
	}
	wg.Wait()
	if maxActive > 2 {
		t.Fatalf("pool of 2 ran %d concurrent workers", maxActive)
	}
	if got := mPoolRequests.Value() - requests; got != 16 {
		t.Fatalf("appserver_requests_total moved by %d, want 16", got)
	}
}

func TestUniquenessAppValidatedVsSimple(t *testing.T) {
	reg, err := UniquenessModels()
	if err != nil {
		t.Fatal(err)
	}
	d, pool := newStack(t, reg, 4)
	// Sequential duplicate inserts: validated model rejects, simple accepts.
	for i := 0; i < 2; i++ {
		err := pool.Do(func(w *Worker) error {
			_, err := w.Session.Create("SimpleKeyValue", map[string]storage.Value{
				"key": storage.Str("k"), "value": storage.Str("v")})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Each validated create runs one feral uniqueness probe; the second
	// finds the first's row. The invariant observatory counts both probes
	// and the one violation at the appserver tier.
	const series = `{tier="appserver",invariant="uniqueness"}`
	checks := obs.Default().CounterValue("feraldb_invariant_checks_total" + series)
	violations := obs.Default().CounterValue("feraldb_invariant_violations_total" + series)
	results := make([]error, 2)
	for i := 0; i < 2; i++ {
		results[i] = pool.Do(func(w *Worker) error {
			_, err := w.Session.Create("ValidatedKeyValue", map[string]storage.Value{
				"key": storage.Str("k"), "value": storage.Str("v")})
			return err
		})
	}
	if results[0] != nil || results[1] == nil {
		t.Fatalf("validated model sequential behavior wrong: %v %v", results[0], results[1])
	}
	c := obs.Default().CounterValue("feraldb_invariant_checks_total"+series) - checks
	v := obs.Default().CounterValue("feraldb_invariant_violations_total"+series) - violations
	if c != 2 || v != 1 {
		t.Fatalf("invariant_checks_total moved by %d, invariant_violations_total by %d; want 2 and 1", c, v)
	}
	conn := d.Connect()
	defer conn.Close()
	if n, _ := CountDuplicates(conn, "simple_key_values"); n != 1 {
		t.Fatalf("simple duplicates = %d", n)
	}
	if n, _ := CountDuplicates(conn, "validated_key_values"); n != 0 {
		t.Fatalf("validated duplicates = %d", n)
	}
}

func TestAssociationAppFeralCascade(t *testing.T) {
	reg, err := AssociationModels()
	if err != nil {
		t.Fatal(err)
	}
	d, pool := newStack(t, reg, 4)
	var deptID int64
	err = pool.Do(func(w *Worker) error {
		rec, err := w.Session.Create("ValidatedDepartment",
			map[string]storage.Value{"name": storage.Str("eng")})
		deptID = rec.ID()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		err = pool.Do(func(w *Worker) error {
			_, err := w.Session.Create("ValidatedUser", map[string]storage.Value{
				"validated_department_id": storage.Int(deptID)})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Destroy ferally cascades.
	err = pool.Do(func(w *Worker) error {
		rec, err := w.Session.Find("ValidatedDepartment", deptID)
		if err != nil {
			return err
		}
		return w.Session.Destroy(rec)
	})
	if err != nil {
		t.Fatal(err)
	}
	conn := d.Connect()
	defer conn.Close()
	if n, _ := CountOrphans(conn, "validated_users", "validated_department_id", "validated_departments"); n != 0 {
		t.Fatalf("sequential cascade left %d orphans", n)
	}
	res, _ := conn.Exec("SELECT COUNT(*) FROM validated_users")
	if res.Rows[0][0].I != 0 {
		t.Fatal("users survived cascade")
	}
}

func TestHTTPFrontEnd(t *testing.T) {
	reg, _ := UniquenessModels()
	_, pool := newStack(t, reg, 4)
	srv := NewServer(pool)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	post := func(path string, body map[string]any) (*http.Response, error) {
		b, _ := json.Marshal(body)
		return http.Post(base+path, "application/json", bytes.NewReader(b))
	}
	resp, err := post("/entries", map[string]any{
		"model": "ValidatedKeyValue", "key": "a", "value": "1"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Duplicate is rejected with 422 (validation failure).
	resp, err = post("/entries", map[string]any{
		"model": "ValidatedKeyValue", "key": "a", "value": "2"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("duplicate status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Health check.
	hres, err := http.Get(base + "/healthz")
	if err != nil || hres.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", hres, err)
	}
	hres.Body.Close()
	// Wrong method.
	gres, _ := http.Get(base + "/entries")
	if gres.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /entries status = %d", gres.StatusCode)
	}
	gres.Body.Close()
}

func TestHTTPAssociationEndpoints(t *testing.T) {
	reg, _ := AssociationModels()
	d, pool := newStack(t, reg, 4)
	srv := NewServer(pool)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	post := func(path string, body map[string]any) int {
		b, _ := json.Marshal(body)
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/departments", map[string]any{
		"model": "ValidatedDepartment", "id": 1, "name": "eng"}); code != 200 {
		t.Fatalf("create department = %d", code)
	}
	if code := post("/users", map[string]any{
		"model": "ValidatedUser", "department_id": 1,
		"fk_attr": "validated_department_id"}); code != 200 {
		t.Fatalf("create user = %d", code)
	}
	// Dangling user rejected (validation).
	if code := post("/users", map[string]any{
		"model": "ValidatedUser", "department_id": 99,
		"fk_attr": "validated_department_id"}); code != 422 {
		t.Fatalf("dangling user = %d", code)
	}
	// Delete cascades.
	req, _ := http.NewRequest(http.MethodDelete,
		fmt.Sprintf("%s/departments/1?model=ValidatedDepartment", base), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("delete: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	conn := d.Connect()
	defer conn.Close()
	res, _ := conn.Exec("SELECT COUNT(*) FROM validated_users")
	if res.Rows[0][0].I != 0 {
		t.Fatal("cascade via HTTP failed")
	}
	// Deleting a missing department is a 404.
	req, _ = http.NewRequest(http.MethodDelete,
		fmt.Sprintf("%s/departments/42?model=ValidatedDepartment", base), nil)
	resp, _ = http.DefaultClient.Do(req)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing delete = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestHTTPUniquenessRaceEndToEnd drives the Figure 2 race through the full
// HTTP front end: concurrent POSTs of the same key against a worker pool,
// exactly as the paper's load generator drove Nginx/Unicorn.
func TestHTTPUniquenessRaceEndToEnd(t *testing.T) {
	reg, _ := UniquenessModels()
	d, pool := newStack(t, reg, 8)
	pool.Configure(func(w *Worker) { w.Session.ThinkTime = 2 * time.Millisecond })
	srv := NewServer(pool)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	const rounds, concurrency = 10, 16
	var accepted, rejected int64
	var mu sync.Mutex
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		wg.Add(concurrency)
		for c := 0; c < concurrency; c++ {
			go func(r int) {
				defer wg.Done()
				body, _ := json.Marshal(map[string]any{
					"model": "ValidatedKeyValue",
					"key":   fmt.Sprintf("key-%d", r),
					"value": "v",
				})
				resp, err := http.Post(base+"/entries", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				mu.Lock()
				defer mu.Unlock()
				switch resp.StatusCode {
				case http.StatusOK:
					accepted++
				case http.StatusUnprocessableEntity, http.StatusConflict:
					rejected++
				default:
					t.Errorf("unexpected status %d", resp.StatusCode)
				}
			}(r)
		}
		wg.Wait()
	}
	if accepted+rejected != rounds*concurrency {
		t.Fatalf("requests lost: %d + %d != %d", accepted, rejected, rounds*concurrency)
	}
	conn := d.Connect()
	defer conn.Close()
	dups, err := CountDuplicates(conn, "validated_key_values")
	if err != nil {
		t.Fatal(err)
	}
	// The race must fire through HTTP too, and the accounting must agree:
	// accepted = distinct keys + duplicates.
	if dups == 0 {
		t.Error("no duplicates through the HTTP front end; the race should fire")
	}
	if accepted != int64(rounds)+dups {
		t.Errorf("accounting mismatch: accepted=%d, rounds=%d, dups=%d", accepted, rounds, dups)
	}
}
