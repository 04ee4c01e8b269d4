package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"feralcc/internal/appserver"
	"feralcc/internal/db"
	"feralcc/internal/obs"
	"feralcc/internal/storage"
)

// sample is one request's outcome as its HTTP client saw it.
type sample struct {
	start, end time.Duration // since the block's clock started
	status     int           // 0 on a transport error
	ok         bool          // an expected status and, for reads, the right value
	id         int64         // the id a create was acknowledged with
}

// drive sends reqs closed loop: clients goroutines each take the next
// request of the sequence, send it, read the whole response and only then
// take another. It returns one sample per request and the wall time from the
// first send to the last response.
func (st *stack) drive(reqs []request, clients int) ([]sample, time.Duration) {
	samples := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	epoch := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				samples[i] = st.send(&reqs[i], epoch)
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(epoch)
}

func (st *stack) send(r *request, epoch time.Time) sample {
	var body io.Reader
	if r.body != "" {
		body = strings.NewReader(r.body)
	}
	hr, err := http.NewRequest(r.method, st.base+r.path, body)
	if err != nil {
		return sample{}
	}
	if r.body != "" {
		hr.Header.Set("Content-Type", "application/json")
	}
	s := sample{start: time.Since(epoch)}
	resp, err := st.client.Do(hr)
	if err != nil {
		s.end = time.Since(epoch)
		return s
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.end = time.Since(epoch)
	if err != nil {
		return s
	}
	s.status = resp.StatusCode
	s.ok = r.expected(s.status)
	if s.status != http.StatusOK {
		return s
	}
	switch r.kind {
	case readEntry:
		var got struct{ Value string }
		s.ok = json.Unmarshal(payload, &got) == nil && got.Value == r.want
	case createFresh, createUser:
		var got struct{ ID int64 }
		s.ok = json.Unmarshal(payload, &got) == nil && got.ID > 0
		s.id = got.ID
	}
	return s
}

// counters are the obs.Default() series the per-layer metrics are deltas of.
var counterNames = []string{
	"feraldb_appserver_requests_total",
	"feraldb_wire_read_bytes_total",
	"feraldb_wire_written_bytes_total",
	"feraldb_plancache_hits_total",
	"feraldb_plancache_misses_total",
	"feraldb_storage_wal_appends_total",
	"feraldb_storage_wal_fsyncs_total",
	"feraldb_storage_group_commit_frames_total",
	"feraldb_storage_group_commit_txns_total",
}

// abortReasons are the label values of feraldb_storage_aborts_total.
var abortReasons = []string{"deadline", "deadlock", "foreign_key", "other",
	"overload", "rollback", "serialization", "unique", "wal"}

func abortSeries(reason string) string {
	return `feraldb_storage_aborts_total{reason="` + reason + `"}`
}

type counters map[string]uint64

func readCounters() counters {
	c := make(counters)
	for _, n := range counterNames {
		c[n] = obs.Default().CounterValue(n)
	}
	for _, r := range abortReasons {
		c[abortSeries(r)] = obs.Default().CounterValue(abortSeries(r))
	}
	return c
}

// since returns c − before, series by series.
func (c counters) since(before counters) counters {
	d := make(counters, len(c))
	for n, v := range c {
		d[n] = v - before[n]
	}
	return d
}

// add adds o into c.
func (c counters) add(o counters) {
	for n, v := range o {
		c[n] += v
	}
}

// block is what one measured block yields.
type block struct {
	setup      time.Duration
	wall       time.Duration
	requests   int
	samples    []sample        // kept only for the block whose spans are written out
	latencies  []time.Duration // sorted, expected outcomes only
	failed     int
	rejected   int // 422 responses: the feral validation said no
	allocs     uint64
	heapBytes  uint64
	duplicates int64
	orphans    int64
	walBytes   int64
	lifetime   counters // deltas from stack assembly to the block's end
	measured   counters // deltas over the measured requests only
	sums       layerSums
	tracers    []*connTracer // nil unless the block was traced; kept like samples
}

func (b *block) throughput() float64 { return float64(b.requests) / b.wall.Seconds() }

// percentile returns the q-quantile (0 < q < 1) of the sorted latencies by
// the nearest-rank rule.
func (b *block) percentile(q float64) time.Duration {
	if len(b.latencies) == 0 {
		return 0
	}
	return b.latencies[max(int(math.Ceil(q*float64(len(b.latencies))))-1, 0)]
}

// runBlock assembles a fresh stack, warms it, measures one fixed-count block
// and runs the correctness gate on what the block left on disk.
func runBlock(s *spec, sz sizes, reqs []request, clients int, outDir string, trace bool) (*block, error) {
	b := &block{}
	atStart := readCounters()
	t0 := time.Now()
	st, err := newStack(s, sz, clients, outDir, trace)
	if err != nil {
		return nil, fmt.Errorf("assemble stack: %w", err)
	}
	defer os.RemoveAll(st.dir)

	warm, measured := reqs[:sz.warm], reqs[sz.warm:]
	warmSamples, _ := st.drive(warm, clients)
	// Set-up is everything before the measured clock starts — assembly,
	// migration, preload and warm-up — so work a change moves out of the
	// measured block into any of them shows.
	b.setup = time.Since(t0)

	// Collect garbage left by set-up and warm-up so the measured block starts
	// from the same heap every time.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	wal0 := st.walBytes()
	before := readCounters()
	for _, t := range st.tracers {
		t.epoch, t.on = time.Now(), true
	}

	b.samples, b.wall = st.drive(measured, clients)
	b.requests = len(b.samples)

	for _, t := range st.tracers {
		t.on = false
	}
	after := readCounters()
	b.walBytes = st.walBytes() - wal0
	runtime.ReadMemStats(&m1)
	b.allocs = m1.Mallocs - m0.Mallocs
	b.heapBytes = m1.HeapAlloc
	b.measured, b.lifetime = after.since(before), after.since(atStart)

	for _, sm := range b.samples {
		b.sums.reqWall += sm.end - sm.start
		if !sm.ok {
			// A failed request has no latency: it misses every percentile.
			b.failed++
			continue
		}
		if sm.status == http.StatusUnprocessableEntity {
			b.rejected++
		}
		b.latencies = append(b.latencies, sm.end-sm.start)
	}
	sort.Slice(b.latencies, func(i, j int) bool { return b.latencies[i] < b.latencies[j] })
	b.sums.requests = b.requests
	b.tracers = st.tracers
	for _, t := range st.tracers {
		b.sums.addConn(t)
	}

	census := db.Wrap(st.store).Connect()
	if s.assoc {
		b.orphans, err = appserver.CountOrphans(census, userTable, userFK, deptTable)
	} else {
		b.duplicates, err = appserver.CountDuplicates(census, kvTable)
	}
	census.Close()
	if err != nil {
		st.close()
		return nil, fmt.Errorf("census: %w", err)
	}
	if err := st.close(); err != nil {
		return nil, fmt.Errorf("close store: %w", err)
	}
	all := append(append([]sample(nil), warmSamples...), b.samples...)
	if err := gate(s, sz, st.opts, reqs, all, b); err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	return b, nil
}

// gate reopens the store from the bytes the block left in its data directory
// and checks what the benchmark promises about them: the engine's own
// integrity check is clean, every acknowledged write is readable, nothing
// the stack did not acknowledge appeared, uniq.indexed holds no duplicate,
// and a traced block saw exactly the ORM transactions its responses imply.
func gate(s *spec, sz sizes, opts storage.Options, reqs []request, samples []sample, b *block) error {
	failed := 0
	for _, sm := range samples {
		if !sm.ok {
			failed++
		}
	}
	if s.indexed && b.duplicates != 0 {
		return fmt.Errorf("%d duplicate keys under a unique index", b.duplicates)
	}
	if b.tracers != nil && failed == 0 {
		want := 0
		for i, sm := range b.samples {
			want++
			if reqs[sz.warm+i].kind == deleteDept && sm.status == http.StatusOK {
				want++ // Find, then the Destroy transaction
			}
		}
		if b.sums.txs != want {
			return fmt.Errorf("connection wrapper saw %d ORM transactions, responses imply %d", b.sums.txs, want)
		}
	}

	store, err := storage.OpenDir(opts)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer store.Close()
	if err := store.CheckIntegrity(); err != nil {
		return fmt.Errorf("integrity after reopen: %w", err)
	}
	conn := db.Wrap(store).Connect()
	defer conn.Close()
	ids := func(table string) (map[int64]bool, error) {
		res, err := conn.Exec("SELECT id FROM " + table)
		if err != nil {
			return nil, err
		}
		set := make(map[int64]bool, len(res.Rows))
		for _, row := range res.Rows {
			set[row[0].I] = true
		}
		return set, nil
	}

	if !s.assoc {
		have, err := ids(kvTable)
		if err != nil {
			return err
		}
		acked := 0
		for i, sm := range samples {
			if reqs[i].kind != createFresh || sm.status != http.StatusOK {
				continue
			}
			acked++
			if !have[sm.id] {
				return fmt.Errorf("acknowledged id %d is not readable after reopen", sm.id)
			}
		}
		if failed == 0 && len(have) != sz.preload+acked {
			return fmt.Errorf("%d rows after reopen, want %d preloaded + %d acknowledged", len(have), sz.preload, acked)
		}
		return nil
	}

	depts, err := ids(deptTable)
	if err != nil {
		return err
	}
	users, err := ids(userTable)
	if err != nil {
		return err
	}
	deleted := make(map[int64]bool)
	for i, sm := range samples {
		if reqs[i].kind == deleteDept && sm.status == http.StatusOK {
			deleted[reqs[i].dept] = true
		}
	}
	for i, sm := range samples {
		r := &reqs[i]
		if sm.status != http.StatusOK {
			continue
		}
		switch {
		case r.kind == createDept && !deleted[r.dept] && !depts[r.dept]:
			return fmt.Errorf("acknowledged department %d is not readable after reopen", r.dept)
		case r.kind == deleteDept && depts[r.dept]:
			return fmt.Errorf("department %d is readable after its acknowledged delete", r.dept)
		case r.kind == createUser && !deleted[r.dept] && !users[sm.id]:
			// A user under a deleted department may be gone (cascaded) or
			// present (orphaned by the feral race); both are the paper's point.
			return fmt.Errorf("acknowledged user %d is not readable after reopen", sm.id)
		}
	}
	return nil
}
