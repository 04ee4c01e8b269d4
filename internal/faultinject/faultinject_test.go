package faultinject

import (
	"errors"
	"testing"
	"time"

	"feralcc/internal/db"
	"feralcc/internal/storage"
)

// fireSequence records which evaluations of a point fire, as a replayable
// trace: index i holds the fired kind (or ^0 for none).
func fireSequence(in *Injector, pt string, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = -1
		if f := in.Eval(pt); f != nil {
			out[i] = int(f.Kind)
		}
	}
	return out
}

func TestEvalDeterministicAcrossInjectors(t *testing.T) {
	arm := func(seed int64) *Injector {
		in := New(seed)
		in.Arm(PointDBExec, Rule{Kind: KindDrop, Rate: 0.2}, Rule{Kind: KindSerialization, Rate: 0.1})
		return in
	}
	a := fireSequence(arm(42), PointDBExec, 2000)
	b := fireSequence(arm(42), PointDBExec, 2000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at eval %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := fireSequence(arm(43), PointDBExec, 2000)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical 2000-eval sequences")
	}
}

func TestEvalRateEndpoints(t *testing.T) {
	in := New(1)
	in.Arm("always", Rule{Kind: KindError, Rate: 1})
	in.Arm("never", Rule{Kind: KindError, Rate: 0})
	for i := 0; i < 100; i++ {
		if in.Eval("always") == nil {
			t.Fatalf("rate 1 missed at eval %d", i)
		}
		if in.Eval("never") != nil {
			t.Fatalf("rate 0 fired at eval %d", i)
		}
	}
}

func TestEvalLimitCapsFires(t *testing.T) {
	in := New(7)
	in.Arm(PointClientSend, Rule{Kind: KindDrop, Rate: 1, Limit: 3})
	fired := 0
	for i := 0; i < 10; i++ {
		if in.Eval(PointClientSend) != nil {
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("limit 3 rule fired %d times", fired)
	}
	if got := in.Stats()[PointClientSend]; got.Evals != 10 || got.Fires[KindDrop] != 3 {
		t.Fatalf("stats: %+v", got)
	}
}

func TestEvalFirstFiringRuleWins(t *testing.T) {
	in := New(5)
	in.Arm("p", Rule{Kind: KindLatency, Rate: 1, Latency: time.Nanosecond}, Rule{Kind: KindError, Rate: 1})
	for i := 0; i < 20; i++ {
		f := in.Eval("p")
		if f == nil || f.Kind != KindLatency {
			t.Fatalf("eval %d: %+v, want latency (first armed rule)", i, f)
		}
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	in.Arm("p", Rule{Kind: KindDrop, Rate: 1})
	in.Disarm("p")
	if f := in.Eval("p"); f != nil {
		t.Fatalf("nil injector fired: %+v", f)
	}
	if in.Stats() != nil || in.Seed() != 0 || in.EngineHook() != nil {
		t.Fatal("nil injector must report empty state")
	}
	if in.Summary() != "no faults fired" {
		t.Fatalf("nil summary: %q", in.Summary())
	}
}

func TestFaultErrorTaxonomy(t *testing.T) {
	cases := []struct {
		kind      Kind
		base      error
		retryable bool
	}{
		{KindSerialization, storage.ErrSerialization, true},
		{KindDeadlock, storage.ErrLockTimeout, true},
		{KindError, nil, true},
	}
	for _, c := range cases {
		f := &Fault{Point: "p", Kind: c.kind}
		err := f.Error()
		if err == nil {
			t.Fatalf("%v: no error", c.kind)
		}
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("%v: %v does not wrap ErrInjected", c.kind, err)
		}
		if c.base != nil && !errors.Is(err, c.base) {
			t.Fatalf("%v: %v does not wrap %v", c.kind, err, c.base)
		}
		if db.Retryable(err) != c.retryable {
			t.Fatalf("%v: Retryable=%v, want %v", c.kind, db.Retryable(err), c.retryable)
		}
	}
	for _, k := range []Kind{KindLatency, KindDrop, KindTruncate} {
		if err := (&Fault{Kind: k}).Error(); err != nil {
			t.Fatalf("%v produced error %v; the owning layer supplies it", k, err)
		}
	}
}

func TestEngineHookMapsOps(t *testing.T) {
	in := New(3)
	in.Arm(PointStorageCommit, Rule{Kind: KindSerialization, Rate: 1})
	in.Arm(PointStorageLock, Rule{Kind: KindDeadlock, Rate: 1})
	hook := in.EngineHook()
	if err := hook("commit"); !errors.Is(err, storage.ErrSerialization) {
		t.Fatalf("commit hook: %v", err)
	}
	if err := hook("lock"); !errors.Is(err, storage.ErrLockTimeout) {
		t.Fatalf("lock hook: %v", err)
	}
	if err := hook("unarmed-op"); err != nil {
		t.Fatalf("unarmed op: %v", err)
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	cases := []struct{ in, canonical string }{
		{"drop=0.01,latency=5ms", "drop=0.01,latency=5ms"},
		{"latency=2ms@0.5", "latency=2ms@0.5"},
		{"wire.client.send:drop=0.05,abort=0.02", "wire.client.send:drop=0.05,abort=0.02"},
		{"serialization=0.1", "abort=0.1"},
		{" drop=0.5 , deadlock=0.25 ", "drop=0.5,deadlock=0.25"},
	}
	for _, c := range cases {
		spec, err := ParseSpec(c.in)
		if err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		if got := spec.String(); got != c.canonical {
			t.Fatalf("%q rendered %q, want %q", c.in, got, c.canonical)
		}
		again, err := ParseSpec(spec.String())
		if err != nil || again.String() != c.canonical {
			t.Fatalf("%q did not round-trip: %q %v", c.in, again.String(), err)
		}
	}
	for _, empty := range []string{"", "none", "  "} {
		spec, err := ParseSpec(empty)
		if err != nil || !spec.Empty() {
			t.Fatalf("%q: %+v %v", empty, spec, err)
		}
	}
	for _, bad := range []string{"drop", "explode=0.5", "drop=2", "drop=-0.1", "latency=xyz", "latency=1ms@nope",
		"wire.clent.send:drop=0.1", "appserver.worker:drop=0.1"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("%q parsed without error", bad)
		}
	}
}

func TestSpecInjectorDeterministic(t *testing.T) {
	spec, err := ParseSpec("drop=0.3,abort=0.2")
	if err != nil {
		t.Fatal(err)
	}
	a := fireSequence(spec.Injector(11), PointDBExec, 1000)
	b := fireSequence(spec.Injector(11), PointDBExec, 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("spec injector diverged at eval %d", i)
		}
	}
}

func TestWrapDropFailsStatementAndRollsBack(t *testing.T) {
	d := db.Open(storage.Options{})
	raw := d.Connect()
	defer raw.Close()
	if _, err := raw.Exec("CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT)"); err != nil {
		t.Fatal(err)
	}

	in := New(9)
	conn := Wrap(d.Connect(), in)
	defer conn.Close()

	// Unarmed, the wrapper is transparent.
	if _, err := conn.Exec("INSERT INTO kv (key) VALUES ('ok')"); err != nil {
		t.Fatal(err)
	}

	// Armed with a certain drop, a statement inside a transaction must fail
	// retryably and the transaction must be gone.
	if _, err := conn.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec("INSERT INTO kv (key) VALUES ('doomed')"); err != nil {
		t.Fatal(err)
	}
	in.Arm(PointDBExec, Rule{Kind: KindDrop, Rate: 1, Limit: 1})
	_, err := conn.Exec("INSERT INTO kv (key) VALUES ('never')")
	if !errors.Is(err, db.ErrConnDropped) || !errors.Is(err, ErrInjected) {
		t.Fatalf("dropped statement error: %v", err)
	}
	if !db.Retryable(err) {
		t.Fatalf("drop before execution must be retryable: %v", err)
	}

	res, err := raw.Exec("SELECT COUNT(*) FROM kv")
	if err != nil || res.Rows[0][0].I != 1 {
		t.Fatalf("after drop: %+v %v (want only the pre-fault row)", res, err)
	}
	// The wrapped session is usable again once the limited rule is spent.
	if _, err := conn.Exec("INSERT INTO kv (key) VALUES ('after')"); err != nil {
		t.Fatalf("session unusable after injected drop: %v", err)
	}
}
