package wire

// Chaos suite: the wire stack under deterministic fault injection. Every test
// arms a fixed-seed injector, so a failure replays exactly; `make check` runs
// these (plus the faultinject package's) under the race detector.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"feralcc/internal/appserver"
	"feralcc/internal/db"
	"feralcc/internal/db/conntest"
	"feralcc/internal/faultinject"
	"feralcc/internal/orm"
	"feralcc/internal/sqlexec"
	"feralcc/internal/storage"
)

// chaosRetry is the bounded policy every chaos test uses: enough attempts to
// ride out the armed fault rates, never enough to loop unbounded.
var chaosRetry = db.RetryPolicy{MaxRetries: 6, Seed: 2015}

// chaosStack builds a store+server pair with the given spec armed on every
// layer (engine hook included) and returns the server address plus injector.
func chaosStack(t *testing.T, specText string, seed int64) (string, *faultinject.Injector) {
	t.Helper()
	spec, err := faultinject.ParseSpec(specText)
	if err != nil {
		t.Fatal(err)
	}
	inj := spec.Injector(seed)
	store := storage.Open(storage.Options{LockTimeout: 2 * time.Second, FaultHook: inj.EngineHook()})
	srv := NewServer(store, nil)
	srv.SetInjector(inj)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	return srv.Addr(), inj
}

// chaosFactory is a conntest factory running the full Conn contract through a
// faulty wire stack, with db.Reliable absorbing the retryable failures.
func chaosFactory(specText string, seed int64) conntest.Factory {
	return func(t *testing.T) db.Conn {
		addr, inj := chaosStack(t, specText, seed)
		c, err := DialOptions(addr, Options{Timeout: 5 * time.Second, Injector: inj})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return db.Reliable(c, chaosRetry)
	}
}

// TestChaosConnSuiteClientSendDrops runs the shared Conn contract while the
// client's send path randomly severs the connection: every fault is
// request-path (the statement never executed), so redial + replay must make
// the suite pass exactly as on a healthy stack.
func TestChaosConnSuiteClientSendDrops(t *testing.T) {
	conntest.Run(t, chaosFactory("wire.client.send:drop=0.08", 2015))
}

// TestChaosConnSuiteServerAborts runs the contract under injected
// serialization aborts and deadlock verdicts at the server's pre-execution
// point — the retry path a contended production deployment exercises.
func TestChaosConnSuiteServerAborts(t *testing.T) {
	conntest.Run(t, chaosFactory("wire.server.exec:abort=0.06,wire.server.exec:deadlock=0.04", 7))
}

// TestChaosConnSuiteLatency runs the contract under injected latency on both
// sides of the wire; nothing fails, everything is merely late.
func TestChaosConnSuiteLatency(t *testing.T) {
	conntest.Run(t, chaosFactory(
		"wire.client.send:latency=200us@0.3,wire.server.write:latency=200us@0.3", 11))
}

// TestChaosConnSuiteEngineCommitAborts runs the contract with the storage
// engine's own commit point injecting serialization failures underneath the
// wire server.
func TestChaosConnSuiteEngineCommitAborts(t *testing.T) {
	conntest.Run(t, chaosFactory("storage.commit:abort=0.05", 23))
}

// TestChaosTruncatedResponseSurfacesLostResponse pins the mid-frame cut: the
// server writes half a response and severs; the client must report a lost
// response (transient, NOT retryable — the statement executed) rather than
// hang or misparse the stream.
func TestChaosTruncatedResponseSurfacesLostResponse(t *testing.T) {
	addr, inj := chaosStack(t, "", 1)
	c, err := DialOptions(addr, Options{Timeout: 2 * time.Second, Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT)"); err != nil {
		t.Fatal(err)
	}
	inj.Arm(faultinject.PointServerWrite, faultinject.Rule{Kind: faultinject.KindTruncate, Rate: 1, Limit: 1})
	gen, redials := c.Gen(), mClientRedials.Value()
	_, err = c.Exec("INSERT INTO kv (key) VALUES ('x')")
	if err == nil {
		t.Fatal("truncated response decoded cleanly")
	}
	if db.Retryable(err) {
		t.Fatalf("lost response must not be retryable: %v", err)
	}
	if !db.Transient(err) {
		t.Fatalf("lost response must be transient: %v", err)
	}
	// The statement executed server-side; the next call redials and sees it.
	res, err := c.Exec("SELECT COUNT(*) FROM kv")
	if err != nil || res.Rows[0][0].I != 1 {
		t.Fatalf("after redial: %+v %v", res, err)
	}
	if c.Gen() <= gen {
		t.Fatal("client did not redial after severed response stream")
	}
	if got := mClientRedials.Value() - redials; got != 1 {
		t.Fatalf("client_redials_total moved by %d, want 1", got)
	}
}

// TestChaosStalledServerTimesOut is the deadline regression: against a server
// that accepts and reads but never responds, a client with a 150ms budget
// must fail with a statement-deadline error within twice that budget instead
// of hanging.
func TestChaosStalledServerTimesOut(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) { io.Copy(io.Discard, c) }(conn)
		}
	}()

	const budget = 150 * time.Millisecond
	c, err := DialOptions(ln.Addr().String(), Options{Timeout: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Exec("SELECT 1")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("stalled server produced a response")
	}
	if !errors.Is(err, storage.ErrStmtDeadline) {
		t.Fatalf("stalled round trip surfaced as %v, want statement deadline", err)
	}
	if db.Retryable(err) || !db.Transient(err) {
		t.Fatalf("deadline taxonomy wrong for %v", err)
	}
	if elapsed > 2*budget {
		t.Fatalf("timeout took %v, budget was %v", elapsed, budget)
	}
}

// TestChaosUniquenessStressOverWire is the Figure-2-shaped anomaly experiment
// run through the faulty wire stack: concurrent creations of the same key
// against the validated-plus-unique-index variant, with request-path drops,
// injected aborts, and engine commit failures all armed. The unique index
// plus bounded retries must keep the outcome inside the paper's envelope:
// zero duplicates, exactly one surviving row per round (retries never
// double-apply), and the run terminates (retries are bounded).
func TestChaosUniquenessStressOverWire(t *testing.T) {
	const (
		seed        = 2015
		workers     = 8
		rounds      = 25
		concurrency = 16
	)
	addr, inj := chaosStack(t,
		"wire.client.send:drop=0.01,wire.server.exec:abort=0.01,storage.commit:abort=0.005", seed)

	registry, err := appserver.UniquenessModels()
	if err != nil {
		t.Fatal(err)
	}
	mig := dialT(t, addr)
	if err := orm.NewSession(registry, mig).Migrate(); err != nil {
		t.Fatal(err)
	}
	if _, err := mig.Exec("CREATE UNIQUE INDEX ON validated_key_values (key)"); err != nil {
		t.Fatal(err)
	}

	var conns []db.Conn
	var connsMu sync.Mutex
	connect := func() db.Conn {
		c, err := DialOptions(addr, Options{Timeout: 5 * time.Second, Injector: inj})
		if err != nil {
			t.Errorf("worker dial: %v", err)
			return db.Reliable(&deadConn{}, db.RetryPolicy{})
		}
		rc := db.Reliable(c, chaosRetry)
		connsMu.Lock()
		conns = append(conns, rc)
		connsMu.Unlock()
		return rc
	}
	pool, err := appserver.NewPool(workers, registry, connect)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pool.Configure(func(w *appserver.Worker) {
		w.Session.ThinkTime = 200 * time.Microsecond
		w.Session.Retry = chaosRetry
	})

	for round := 0; round < rounds; round++ {
		key := fmt.Sprintf("key-%d", round)
		var wg sync.WaitGroup
		wg.Add(concurrency)
		for i := 0; i < concurrency; i++ {
			go func() {
				defer wg.Done()
				// Validation and uniqueness failures are the experiment's
				// subject; injected-fault residue is absorbed by retries.
				_ = pool.Do(func(w *appserver.Worker) error {
					_, err := w.Session.Create("ValidatedKeyValue", map[string]storage.Value{
						"key":   storage.Str(key),
						"value": storage.Str("v"),
					})
					return err
				})
			}()
		}
		wg.Wait()
	}

	check := dialT(t, addr)
	dups, err := appserver.CountDuplicates(check, "validated_key_values")
	if err != nil {
		t.Fatal(err)
	}
	if dups != 0 {
		t.Fatalf("unique index leaked %d duplicates under faults", dups)
	}
	res, err := check.Exec("SELECT COUNT(*) FROM validated_key_values")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].I; got != rounds {
		t.Fatalf("%d rows for %d rounds: retries double-applied or rounds starved", got, rounds)
	}

	var retries uint64
	connsMu.Lock()
	for _, c := range conns {
		if rs, ok := c.(db.RetryStats); ok {
			retries += rs.Retries()
		}
	}
	connsMu.Unlock()
	maxRetries := uint64(chaosRetry.MaxRetries) * uint64(rounds*concurrency) * 8
	if retries > maxRetries {
		t.Fatalf("retry volume %d exceeds bound %d", retries, maxRetries)
	}
	t.Logf("chaos stress: %s; %d connection-level retries", inj.Summary(), retries)
}

// deadConn satisfies db.Conn for a worker whose dial failed mid-test.
type deadConn struct{}

func (deadConn) Exec(string, ...storage.Value) (*db.Result, error) { return nil, net.ErrClosed }
func (deadConn) ExecContext(_ context.Context, _ string, _ ...storage.Value) (*db.Result, error) {
	return nil, net.ErrClosed
}
func (deadConn) Prepare(string) (db.Stmt, error) { return nil, net.ErrClosed }
func (deadConn) Close() error                    { return nil }

// TestChaosGracefulDrain shuts the server down while clients are mid-burst:
// Shutdown must complete within its deadline, every acknowledged insert must
// be durable, and late statements must fail with connection errors rather
// than executing after the drain.
func TestChaosGracefulDrain(t *testing.T) {
	store := storage.Open(storage.Options{})
	srv := NewServer(store, nil)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()

	setup := dialT(t, srv.Addr())
	if _, err := setup.Exec("CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT)"); err != nil {
		t.Fatal(err)
	}

	const clients = 6
	var acked atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func() {
			defer wg.Done()
			c, err := DialOptions(srv.Addr(), Options{Timeout: 2 * time.Second, NoRedial: true})
			if err != nil {
				return
			}
			defer c.Close()
			<-start
			for j := 0; ; j++ {
				if _, err := c.Exec("INSERT INTO kv (key) VALUES (?)", storage.Str("k")); err != nil {
					return // drained mid-burst
				}
				acked.Add(1)
			}
		}()
	}
	close(start)
	time.Sleep(20 * time.Millisecond) // let the burst get going

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain incomplete: %v", err)
	}
	wg.Wait()

	// Every acknowledged insert must have committed (count directly on the
	// store: the server is gone).
	res, err := sqlexec.NewSession(store).Exec("SELECT COUNT(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].I; got < acked.Load() {
		t.Fatalf("%d rows durable but %d inserts were acknowledged", got, acked.Load())
	}
	if acked.Load() == 0 {
		t.Fatal("no insert was acknowledged before the drain; test raced to nothing")
	}
}

// TestChaosGracefulDrainDurable is the durable variant of the drain test and
// pins feraldbd's shutdown contract: drain the server mid-burst, write a final
// checkpoint, close — then reopening the data directory must replay ZERO log
// records (the checkpoint captured everything), and every acknowledged insert
// must still be present in the recovered store.
func TestChaosGracefulDrainDurable(t *testing.T) {
	dir := t.TempDir()
	store, err := storage.OpenDir(storage.Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, nil)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()

	setup := dialT(t, srv.Addr())
	if _, err := setup.Exec("CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT)"); err != nil {
		t.Fatal(err)
	}

	const clients = 6
	var acked atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func() {
			defer wg.Done()
			c, err := DialOptions(srv.Addr(), Options{Timeout: 2 * time.Second, NoRedial: true})
			if err != nil {
				return
			}
			defer c.Close()
			<-start
			for {
				if _, err := c.Exec("INSERT INTO kv (key) VALUES (?)", storage.Str("k")); err != nil {
					return // drained mid-burst
				}
				acked.Add(1)
			}
		}()
	}
	close(start)
	time.Sleep(20 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain incomplete: %v", err)
	}
	wg.Wait()
	if acked.Load() == 0 {
		t.Fatal("no insert was acknowledged before the drain; test raced to nothing")
	}

	// feraldbd's shutdown sequence: final checkpoint, then close.
	if _, err := store.Checkpoint(); err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	reopened, err := storage.OpenDir(storage.Options{DataDir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	rec := reopened.Recovery()
	if rec.RecordsReplayed != 0 {
		t.Fatalf("clean shutdown still replayed %d log records; checkpoint missed state", rec.RecordsReplayed)
	}
	if !rec.SnapshotLoaded {
		t.Fatal("reopen loaded no snapshot after a checkpointed shutdown")
	}
	res, err := sqlexec.NewSession(reopened).Exec("SELECT COUNT(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].I; got < acked.Load() {
		t.Fatalf("recovered %d rows but %d inserts were acknowledged before shutdown", got, acked.Load())
	}
}
