package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

const benchmarkPath = "../../BENCHMARK.json"

// render is the byte form of a request sequence the determinism test compares.
func render(reqs []request) []byte {
	var b bytes.Buffer
	for _, r := range reqs {
		fmt.Fprintf(&b, "%d %s %s %s %s %d\n", r.kind, r.method, r.path, r.body, r.want, r.dept)
	}
	return b.Bytes()
}

func TestGeneratorIsSeeded(t *testing.T) {
	for _, s := range specs {
		for _, sz := range []sizes{s.full, s.quick} {
			a, b, c := generate(s, 7, sz), generate(s, 7, sz), generate(s, 8, sz)
			if len(a) != sz.warm+sz.measured {
				t.Errorf("%s: %d requests, want %d warm-up + %d measured", s.name, len(a), sz.warm, sz.measured)
			}
			if !bytes.Equal(render(a), render(b)) {
				t.Errorf("%s: the same seed gave two different sequences", s.name)
			}
			if bytes.Equal(render(a), render(c)) {
				t.Errorf("%s: seeds 7 and 8 gave the same sequence", s.name)
			}
		}
	}
}

// TestAssocDeletesFindTheirDepartment pins the generator's promise that a
// department is deleted at most once, only after it exists, and that users
// are only created under departments still live in sequence order.
func TestAssocDeletesFindTheirDepartment(t *testing.T) {
	s := specByName("assoc.mixed")
	born := make(map[int64]int)
	for d := 1; d <= s.full.preload; d++ {
		born[int64(d)] = -deleteLag
	}
	for i, r := range generate(s, 3, s.full) {
		at, live := born[r.dept]
		switch r.kind {
		case createDept:
			if live {
				t.Fatalf("request %d creates department %d twice", i, r.dept)
			}
			born[r.dept] = i
		case deleteDept:
			if !live || i-at < deleteLag {
				t.Fatalf("request %d deletes department %d, live=%v born at %d", i, r.dept, live, at)
			}
			delete(born, r.dept)
		case createUser:
			if !live {
				t.Fatalf("request %d creates a user under dead department %d", i, r.dept)
			}
		}
	}
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the generator has %d", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the generator %q", i, w.Name, specs[i].name)
		}
	}
}

// TestQuickSmoke runs every workload at -quick size, untraced and traced,
// through the correctness gate, and checks that each metric BENCHMARK.json
// names is both in the result line and printed by name with its unit.
func TestQuickSmoke(t *testing.T) {
	bf, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, s := range specs {
		for _, trace := range []bool{false, true} {
			cfg := config{seed: 1, quick: true, trace: trace, clients: runtime.NumCPU(), outDir: t.TempDir()}
			var out bytes.Buffer
			res, err := runWorkload(&out, s, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", s.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < s.quick.measured {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", s.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := make(map[string]string)
			if trace {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+s.name+".jsonl")); err != nil {
					t.Errorf("%s: no span file: %v", s.name, err)
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics in the result, BENCHMARK.json names %d", s.name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s: got %+v (present=%v), want unit %q", s.name, trace, name, m, ok, unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s is %v", s.name, trace, name, m.Value)
				}
				printed := false
				for _, line := range strings.Split(out.String(), "\n") {
					f := strings.Fields(line)
					if len(f) >= 3 && f[0] == name && f[2] == unit {
						printed = true
					}
				}
				if !printed {
					t.Errorf("%s trace=%v: metric %s is not printed with unit %q", s.name, trace, name, unit)
				}
			}
		}
	}
	t.Logf("quick mode, all workloads, both modes: %v", time.Since(start))
}

// TestTracerGroupsStatementsIntoTransactions feeds the connection tracer the
// statement order the ORM produces for a first validated create (each
// statement prepared right before it first runs) and for an autocommit read.
func TestTracerGroupsStatementsIntoTransactions(t *testing.T) {
	epoch := time.Now()
	tr := &connTracer{on: true, epoch: epoch}
	at := func(us int) time.Time { return epoch.Add(time.Duration(us) * time.Microsecond) }
	steps := []struct {
		name       string
		start, end int
	}{
		{"prepare", 0, 10}, {"begin", 10, 20},
		{"prepare", 20, 30}, {"select", 30, 40},
		{"insert", 42, 50}, {"commit", 50, 90},
		{"select", 100, 120},
	}
	for _, s := range steps {
		tr.observe(s.name, at(s.start), at(s.end), nil)
	}
	if len(tr.txs) != 2 {
		t.Fatalf("%d transactions, want 2", len(tr.txs))
	}
	us := time.Microsecond
	if tr.txs[0] != (txSpan{0, 90 * us}) || tr.txs[1] != (txSpan{100 * us, 120 * us}) {
		t.Errorf("transaction spans %+v", tr.txs)
	}
	for i, wantTx := range []int{0, 0, 0, 0, 0, 0, 1} {
		if tr.stmts[i].tx != wantTx {
			t.Errorf("statement %d (%s) belongs to transaction %d, want %d", i, tr.stmts[i].name, tr.stmts[i].tx, wantTx)
		}
	}
	var sums layerSums
	sums.addConn(tr)
	if sums.stmts != 5 || sums.txWall != 110*us || sums.stmtWall != 108*us {
		t.Errorf("sums %+v", sums)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two values %v %v %v", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{
		"workloads": [{"name": "w"}],
		"end_to_end": [
			{"name": "rps", "unit": "1/s", "better": "higher", "bound": 0.1},
			{"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1},
			{"name": "same", "unit": "ms", "better": "lower", "bound": 0.1},
			{"name": "noisy", "unit": "ms", "better": "lower", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, rps, lat, same float64, noisy []float64) string {
		path := filepath.Join(dir, name)
		for _, n := range noisy {
			res := &result{Correct: true, Attempted: 1, Metrics: map[string]metric{
				"rps": {rps, "1/s"}, "lat": {lat, "ms"}, "same": {same, "ms"}, "noisy": {n, "ms"}}}
			if err := appendResult(path, "w", config{}, res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.json", 100, 10, 5, []float64{1, 2, 3, 4})
	b := write("b.json", 80, 8, 5.2, []float64{1, 2, 3, 4})
	var out bytes.Buffer
	worse, err := compareFiles(&out, bench, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !worse {
		t.Error("a 20% throughput drop is not reported as worse")
	}
	for metric, verdict := range map[string]string{"rps": "worse", "lat": "better", "same": "unchanged", "noisy": "unresolved"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[1] == metric {
				found = f[len(f)-1] == verdict
			}
		}
		if !found {
			t.Errorf("metric %s: want verdict %s in\n%s", metric, verdict, out.String())
		}
	}
	out.Reset()
	if worse, err := compareFiles(&out, bench, a, a); err != nil || worse {
		t.Errorf("a file against itself: worse=%v err=%v", worse, err)
	}
}
