package anomalywatch

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"feralcc/internal/histcheck"
	"feralcc/internal/obs"
)

// hist stamps sequence numbers so test histories read as plain event lists.
func hist(events ...histcheck.Event) []histcheck.Event {
	out := make([]histcheck.Event, len(events))
	for i, e := range events {
		e.Seq = uint64(i + 1)
		out[i] = e
	}
	return out
}

func begin(tx uint64, level string) histcheck.Event {
	return histcheck.Event{Tx: tx, Kind: histcheck.KindBegin, Level: level}
}

func read(tx, row, observed uint64) histcheck.Event {
	return histcheck.Event{Tx: tx, Kind: histcheck.KindRead, Table: "t", Row: row, Observed: observed}
}

func write(tx, row, version uint64) histcheck.Event {
	return histcheck.Event{Tx: tx, Kind: histcheck.KindWrite, Table: "t", Row: row, Op: "update", Version: version}
}

func commit(tx uint64) histcheck.Event {
	return histcheck.Event{Tx: tx, Kind: histcheck.KindCommit}
}

func abort(tx uint64) histcheck.Event {
	return histcheck.Event{Tx: tx, Kind: histcheck.KindAbort, Reason: "test"}
}

const rc = "READ COMMITTED"

// anomalyHistories are fixed synthetic histories, one per Adya class the
// checker detects, interleaved the way a live feed would deliver them.
var anomalyHistories = []struct {
	name   string
	events []histcheck.Event
	want   histcheck.Anomaly
}{
	{
		// T1 and T2 install each other's successors on two rows: a ww-only cycle.
		name: "G0",
		events: hist(
			begin(1, rc), begin(2, rc),
			write(1, 1, 1), write(2, 1, 2),
			write(2, 2, 1), write(1, 2, 2),
			commit(1), commit(2),
		),
		want: histcheck.G0,
	},
	{
		// T2 reads the version an aborted T1 would have installed.
		name: "G1a",
		events: hist(
			begin(1, rc), begin(2, rc),
			write(1, 1, 5),
			read(2, 1, 5),
			abort(1), commit(2),
		),
		want: histcheck.G1a,
	},
	{
		// T2 reads T1's first write to row 1, not its final one.
		name: "G1b",
		events: hist(
			begin(1, rc), begin(2, rc),
			write(1, 1, 5),
			read(2, 1, 5),
			write(1, 1, 6),
			commit(1), commit(2),
		),
		want: histcheck.G1b,
	},
	{
		// Each transaction reads the other's write: circular information flow.
		name: "G1c",
		events: hist(
			begin(1, rc), begin(2, rc),
			write(1, 1, 1), write(2, 2, 1),
			read(1, 2, 1), read(2, 1, 1),
			commit(1), commit(2),
		),
		want: histcheck.G1c,
	},
	{
		// Lost update: T1 reads row 1 (rw to T2's overwrite) while T2's write to
		// row 2 precedes T1's (ww back) — a cycle with exactly one rw edge.
		name: "G-single",
		events: hist(
			begin(10, rc),
			write(10, 1, 1), commit(10),
			begin(1, rc), begin(2, rc),
			read(1, 1, 1),
			write(2, 1, 2), write(2, 2, 1), commit(2),
			write(1, 2, 2), commit(1),
		),
		want: histcheck.GSingle,
	},
	{
		// Write skew: both read the other's row before either writes.
		name: "G2-item",
		events: hist(
			begin(10, rc),
			write(10, 1, 1), write(10, 2, 1), commit(10),
			begin(1, rc), begin(2, rc),
			read(1, 1, 1), read(2, 2, 1),
			write(1, 2, 2), commit(1),
			write(2, 1, 2), commit(2),
		),
		want: histcheck.G2Item,
	},
}

func classSet(xs []histcheck.Anomaly) map[histcheck.Anomaly]bool {
	m := make(map[histcheck.Anomaly]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}

func feed(t *testing.T, w *Watcher, events []histcheck.Event) {
	t.Helper()
	for _, e := range events {
		if !w.Offer(e) {
			t.Fatalf("Offer(%+v) shed", e)
		}
	}
	w.Drain()
}

// TestLiveMatchesOffline is the core parity check: on a clean window (no
// sheds, no truncation) the live watcher must report exactly the anomaly
// classes the offline checker finds in the same history.
func TestLiveMatchesOffline(t *testing.T) {
	for _, tc := range anomalyHistories {
		t.Run(tc.name, func(t *testing.T) {
			w := New(Config{SampleRate: 1})
			defer w.Stop()
			feed(t, w, tc.events)

			st := w.Stats()
			if st.Shed != 0 || st.Truncated != 0 {
				t.Fatalf("window not clean: shed=%d truncated=%d", st.Shed, st.Truncated)
			}
			live := classSet(w.Classes())
			offline := classSet(histcheck.Check(tc.events).Classes())
			if !live[tc.want] {
				t.Errorf("live checker missed %s; saw %v", tc.want, w.Classes())
			}
			for c := range offline {
				if !live[c] {
					t.Errorf("offline found %s, live did not (live=%v offline=%v)", c, live, offline)
				}
			}
			for c := range live {
				if !offline[c] {
					t.Errorf("live found %s, offline did not (live=%v offline=%v)", c, live, offline)
				}
			}
		})
	}
}

// TestForbiddenVerdictMatchesLevel pins the forbidden flag to
// histcheck.Allowed: write skew is admitted at READ COMMITTED but proscribed
// under SERIALIZABLE.
func TestForbiddenVerdictMatchesLevel(t *testing.T) {
	for _, tc := range []struct {
		level     string
		forbidden bool
	}{
		{"READ COMMITTED", false},
		{"SERIALIZABLE", true},
	} {
		w := New(Config{SampleRate: 1})
		forbidden := mForbidden.Value()
		events := hist(
			begin(10, tc.level),
			write(10, 1, 1), write(10, 2, 1), commit(10),
			begin(1, tc.level), begin(2, tc.level),
			read(1, 1, 1), read(2, 2, 1),
			write(1, 2, 2), commit(1),
			write(2, 1, 2), commit(2),
		)
		feed(t, w, events)
		st := w.Stats()
		if tc.forbidden && st.Forbidden == 0 {
			t.Errorf("level %s: write skew not flagged forbidden", tc.level)
		}
		if tc.forbidden && mForbidden.Value() == forbidden {
			t.Errorf("level %s: anomaly_watch_forbidden_total did not move", tc.level)
		}
		if !tc.forbidden && st.Forbidden != 0 {
			t.Errorf("level %s: write skew flagged forbidden %d times", tc.level, st.Forbidden)
		}
		w.Stop()
	}
}

// TestWitnessReplay pins the scrape-and-replay contract: every witness's
// event projection, checked offline in isolation, must exhibit the anomaly
// the live checker reported, and must survive a JSONL round trip.
func TestWitnessReplay(t *testing.T) {
	for _, tc := range anomalyHistories {
		t.Run(tc.name, func(t *testing.T) {
			w := New(Config{SampleRate: 1})
			defer w.Stop()
			feed(t, w, tc.events)

			wits := w.Witnesses()
			if len(wits) == 0 {
				t.Fatal("no witnesses retained")
			}
			for i, wit := range wits {
				if wit.Truncated {
					continue
				}
				rep := histcheck.Check(wit.Events)
				if !rep.Has(wit.Anomaly) {
					t.Errorf("witness %d (%s): offline replay of projection found %v",
						i, wit.Anomaly, rep.Classes())
				}
			}

			var buf bytes.Buffer
			if err := WriteWitnesses(&buf, wits); err != nil {
				t.Fatalf("WriteWitnesses: %v", err)
			}
			rt, err := histcheck.ReadJSONL(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("ReadJSONL round trip: %v", err)
			}
			var want []histcheck.Event
			for _, wit := range wits {
				want = append(want, wit.Events...)
			}
			if len(rt) != len(want) {
				t.Fatalf("round trip: %d events, want %d", len(rt), len(want))
			}
			for i := range rt {
				if rt[i] != want[i] {
					t.Errorf("round trip event %d: %+v != %+v", i, rt[i], want[i])
				}
			}
		})
	}
}

// TestWindowEvictionStraddle drives a would-be G-single cycle whose first
// participant is evicted before the closing edge arrives. The watcher may
// miss the cycle — that is the windowed-checker bargain — but it must count
// the eviction as a truncation so the clean-window certificate is withdrawn.
func TestWindowEvictionStraddle(t *testing.T) {
	w := New(Config{SampleRate: 1, WindowTxns: 2})
	defer w.Stop()

	var events []histcheck.Event
	add := func(e histcheck.Event) {
		e.Seq = uint64(len(events) + 1)
		events = append(events, e)
	}
	// T1 installs row 1; T2 reads it and commits with the read still pending a
	// successor install (the future rw edge of a lost update).
	add(begin(1, rc))
	add(write(1, 1, 1))
	add(commit(1))
	add(begin(2, rc))
	add(read(2, 1, 1))
	add(write(2, 2, 1))
	add(commit(2))
	// Filler transactions push T1 and T2 out of the two-transaction window.
	for id := uint64(100); id < 110; id++ {
		add(begin(id, rc))
		add(write(id, id, 1))
		add(commit(id))
	}
	// T3 would close the cycle: overwrites row 1 (rw from T2) and is
	// ww-preceded by T2 on row 2.
	add(begin(3, rc))
	add(write(3, 1, 2))
	add(write(3, 2, 2))
	add(commit(3))
	evictions, truncated := mEvictions.Value(), mTruncated.Value()
	lag, _ := obs.Default().HistogramSnapshot("feraldb_anomaly_watch_checker_lag_seconds")
	feed(t, w, events)

	st := w.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions despite WindowTxns=2")
	}
	if st.Truncated == 0 {
		t.Error("cycle straddled the eviction horizon but Truncated == 0: the clean-window certificate would be false")
	}
	if mEvictions.Value() == evictions || mTruncated.Value() == truncated {
		t.Error("window_evictions_total and window_truncated_total must both move")
	}
	if after, _ := obs.Default().HistogramSnapshot("feraldb_anomaly_watch_checker_lag_seconds"); after.Count == lag.Count {
		t.Error("checker_lag_seconds observed none of the processed events")
	}
	if st.WindowTxns > 3 {
		t.Errorf("window holds %d transactions, want <= WindowTxns+open", st.WindowTxns)
	}
}

// TestInsideWindowNoFalseNegative is the other half of the straddle
// guarantee: the same cycle completing within the window is found even while
// unrelated transactions are being evicted around it.
func TestInsideWindowNoFalseNegative(t *testing.T) {
	w := New(Config{SampleRate: 1, WindowTxns: 8})
	defer w.Stop()

	var events []histcheck.Event
	add := func(e histcheck.Event) {
		e.Seq = uint64(len(events) + 1)
		events = append(events, e)
	}
	// Enough filler to cycle the window a few times before the anomaly.
	for id := uint64(100); id < 140; id++ {
		add(begin(id, rc))
		add(write(id, id, 1))
		add(commit(id))
	}
	add(begin(10, rc))
	add(write(10, 1, 1))
	add(commit(10))
	add(begin(1, rc))
	add(begin(2, rc))
	add(read(1, 1, 1))
	add(write(2, 1, 2))
	add(write(2, 2, 1))
	add(commit(2))
	add(write(1, 2, 2))
	add(commit(1))
	feed(t, w, events)

	if !classSet(w.Classes())[histcheck.GSingle] {
		t.Errorf("G-single inside the window not found; classes=%v stats=%+v", w.Classes(), w.Stats())
	}
}

// TestShedAndCount fills the ring with no consumer draining it and checks
// that Offer never blocks, reports the drop, and counts it.
func TestShedAndCount(t *testing.T) {
	lim := defaultLimits
	lim.ring = 4
	w := newWatcher(Config{SampleRate: 1}, lim)
	w.Stop() // consumer gone; the ring can only fill

	events, sheds := mEvents.Value(), mShed.Value()
	accepted, shed := 0, 0
	for i := 0; i < 16; i++ {
		if w.Offer(histcheck.Event{Seq: uint64(i + 1), Tx: 1, Kind: histcheck.KindBegin, Level: rc}) {
			accepted++
		} else {
			shed++
		}
	}
	if accepted != 4 {
		t.Errorf("accepted %d events into a 4-slot ring, want 4", accepted)
	}
	if shed != 12 {
		t.Errorf("shed %d, want 12", shed)
	}
	if st := w.Stats(); st.Shed != 12 {
		t.Errorf("Stats().Shed = %d, want 12", st.Shed)
	}
	if e, s := mEvents.Value()-events, mShed.Value()-sheds; e != 4 || s != 12 {
		t.Errorf("events_total moved by %d, events_shed_total by %d; want 4 and 12", e, s)
	}
}

// TestSamplingDeterministic pins the seeded sampler: the same seed yields the
// same per-id decisions across watchers, and the rate lands near its target.
func TestSamplingDeterministic(t *testing.T) {
	a := New(Config{SampleRate: 0.5, Seed: 42})
	b := New(Config{SampleRate: 0.5, Seed: 42})
	c := New(Config{SampleRate: 0.5, Seed: 43})
	defer a.Stop()
	defer b.Stop()
	defer c.Stop()

	hits, diff := 0, 0
	for id := uint64(1); id <= 2000; id++ {
		da, db, dc := a.SampleTx(id), b.SampleTx(id), c.SampleTx(id)
		if da != db {
			t.Fatalf("same seed disagrees at id %d", id)
		}
		if da {
			hits++
		}
		if da != dc {
			diff++
		}
	}
	if hits < 800 || hits > 1200 {
		t.Errorf("rate 0.5 sampled %d/2000", hits)
	}
	if diff == 0 {
		t.Error("different seeds produced identical decisions over 2000 ids")
	}
}

// TestConflictEscalation pins the always-sample-on-conflict path: after
// NoteConflict, ids the base rate rejects are sampled until the budget runs
// out.
func TestConflictEscalation(t *testing.T) {
	lim := defaultLimits
	lim.escalation = 3
	w := newWatcher(Config{SampleRate: 0}, lim)
	defer w.Stop()
	escalations, sampled := mEscalations.Value(), mSampled.Value()

	if w.SampleTx(1) {
		t.Fatal("rate 0 sampled without a conflict")
	}
	w.NoteConflict()
	for i := uint64(0); i < 3; i++ {
		if !w.SampleTx(100 + i) {
			t.Fatalf("escalated sample %d rejected", i)
		}
	}
	if w.SampleTx(200) {
		t.Error("sampled beyond the escalation budget")
	}
	if st := w.Stats(); st.Escalations != 3 {
		t.Errorf("Stats().Escalations = %d, want 3", st.Escalations)
	}
	if e, s := mEscalations.Value()-escalations, mSampled.Value()-sampled; e != 3 || s != 3 {
		t.Errorf("escalations_total moved by %d, sampled_txns_total by %d; want 3 and 3", e, s)
	}
	// Re-arming tops the budget back up rather than accumulating.
	w.NoteConflict()
	w.NoteConflict()
	n := 0
	for i := uint64(0); i < 10; i++ {
		if w.SampleTx(300 + i) {
			n++
		}
	}
	if n != 3 {
		t.Errorf("re-armed budget sampled %d, want 3", n)
	}
}

// TestNilWatcher pins the nil-receiver contract the storage hot path relies
// on: every producer-side method is a cheap no-op.
func TestNilWatcher(t *testing.T) {
	var w *Watcher
	if w.SampleTx(1) {
		t.Error("nil watcher sampled")
	}
	w.NoteConflict()
	if w.Offer(histcheck.Event{}) {
		t.Error("nil watcher accepted an event")
	}
	w.Stop()
	if st := w.Stats(); st.Events != 0 {
		t.Error("nil watcher has stats")
	}
	if w.Witnesses() != nil {
		t.Error("nil watcher has witnesses")
	}
}

// TestWitnessMetadata checks the fields /anomalies serves: participants,
// levels, traces, and a printable cycle.
func TestWitnessMetadata(t *testing.T) {
	w := New(Config{SampleRate: 1})
	defer w.Stop()
	events := hist(
		begin(1, rc), begin(2, rc),
		write(1, 1, 1), write(2, 1, 2),
		write(2, 2, 1), write(1, 2, 2),
		commit(1), commit(2),
	)
	for i := range events {
		events[i].Trace = 0xabc0 + events[i].Tx
	}
	feed(t, w, events)

	wits := w.Witnesses()
	if len(wits) == 0 {
		t.Fatal("no witnesses")
	}
	wit := wits[0]
	if wit.Anomaly != histcheck.G0 {
		t.Errorf("anomaly = %s, want G0", wit.Anomaly)
	}
	if !wit.Forbidden {
		t.Error("G0 not marked forbidden")
	}
	txs := append([]uint64(nil), wit.Txs...)
	sort.Slice(txs, func(i, j int) bool { return txs[i] < txs[j] })
	if len(txs) != 2 || txs[0] != 1 || txs[1] != 2 {
		t.Errorf("txs = %v, want {1, 2}", wit.Txs)
	}
	if len(wit.Levels) == 0 || wit.Levels[0] != rc {
		t.Errorf("levels = %v", wit.Levels)
	}
	traces := append([]uint64(nil), wit.Traces...)
	sort.Slice(traces, func(i, j int) bool { return traces[i] < traces[j] })
	if len(traces) != 2 || traces[0] != 0xabc1 || traces[1] != 0xabc2 {
		t.Errorf("traces = %v, want [abc1 abc2]", wit.Traces)
	}
	if wit.Cycle == "" {
		t.Error("empty cycle witness")
	}
	if len(wit.Events) == 0 {
		t.Error("empty event projection")
	}
	for _, e := range wit.Events {
		if e.Tx != 1 && e.Tx != 2 {
			t.Errorf("projection includes non-participant tx %d", e.Tx)
		}
	}

	s := FormatTraces(wit.Traces)
	if s == "none" {
		t.Errorf("FormatTraces(%v) = none", wit.Traces)
	}
	if FormatTraces(nil) != "none" {
		t.Error(`FormatTraces(nil) != "none"`)
	}
	if got := FormatTxs([]uint64{3, 7}); got != "3,7" {
		t.Errorf("FormatTxs = %q", got)
	}
}

// TestWitnessRingBound checks limits.witnesses caps retention while the
// counters keep counting.
func TestWitnessRingBound(t *testing.T) {
	lim := defaultLimits
	lim.witnesses = 2
	w := newWatcher(Config{SampleRate: 1, WindowTxns: 8}, lim)
	defer w.Stop()

	var events []histcheck.Event
	add := func(e histcheck.Event) {
		e.Seq = uint64(len(events) + 1)
		events = append(events, e)
	}
	// Distinct G1a pairs so every anomaly is a fresh finding.
	for i := uint64(0); i < 5; i++ {
		wr, rd, row := 1000+2*i, 1001+2*i, 500+i
		add(begin(wr, rc))
		add(begin(rd, rc))
		add(write(wr, row, 5))
		add(read(rd, row, 5))
		add(abort(wr))
		add(commit(rd))
	}
	feed(t, w, events)

	st := w.Stats()
	if st.Anomalies[histcheck.G1a] != 5 {
		t.Errorf("counted %d G1a, want 5 (stats %+v)", st.Anomalies[histcheck.G1a], st)
	}
	if got := len(w.Witnesses()); got != 2 {
		t.Errorf("retained %d witnesses, want 2", got)
	}
}

// TestAbortedTxProducesNoEdges checks that an aborted transaction's writes
// never become ww/wr sources for committed readers of other versions.
func TestAbortedTxProducesNoEdges(t *testing.T) {
	w := New(Config{SampleRate: 1})
	defer w.Stop()
	feed(t, w, hist(
		begin(1, rc), begin(2, rc), begin(3, rc),
		write(1, 1, 1), commit(1),
		write(2, 1, 2), abort(2),
		read(3, 1, 1), write(3, 1, 3), commit(3),
	))
	if cs := w.Classes(); len(cs) != 0 {
		t.Errorf("clean history reported %v", cs)
	}
	if st := w.Stats(); st.Forbidden != 0 {
		t.Errorf("forbidden = %d on clean history", st.Forbidden)
	}
}

// feedChunked offers events with a Drain every few thousand, so histories
// longer than the ring never shed.
func feedChunked(t *testing.T, w *Watcher, events []histcheck.Event) {
	t.Helper()
	for len(events) > 4096 {
		feed(t, w, events[:4096])
		events = events[4096:]
	}
	feed(t, w, events)
}

// TestResidentCycleCountedOnce pins that finding dedup lasts as long as the
// participants are resident: a G-single cycle stays in the window while more
// than 16,384 unrelated G1a findings pass (the size at which the dedup map
// used to be cleared wholesale), then one more edge forces a
// reclassification. The cycle must still count once.
func TestResidentCycleCountedOnce(t *testing.T) {
	w := New(Config{SampleRate: 1, WindowTxns: 1 << 16})
	defer w.Stop()

	events := append([]histcheck.Event(nil), anomalyHistories[4].events...) // G-single
	events = append(events, begin(50, rc), write(50, 99, 5))
	const readers = 16500
	for id := uint64(1000); id < 1000+readers; id++ {
		events = append(events, begin(id, rc), read(id, 99, 5), commit(id))
	}
	events = append(events, abort(50))
	// A fresh ww edge between two bystanders dirties the graph.
	events = append(events,
		begin(60, rc), begin(61, rc),
		write(60, 98, 1), commit(60),
		write(61, 98, 2), commit(61))
	feedChunked(t, w, hist(events...))

	st := w.Stats()
	if st.Evictions != 0 {
		t.Fatalf("window too small for the test: %d evictions", st.Evictions)
	}
	if st.Anomalies[histcheck.G1a] != readers {
		t.Errorf("counted %d G1a, want %d", st.Anomalies[histcheck.G1a], readers)
	}
	if st.Anomalies[histcheck.GSingle] != 1 {
		t.Errorf("resident G-single cycle counted %d times, want 1", st.Anomalies[histcheck.GSingle])
	}
}

// TestReadsBeyondWitnessCapReachTheGraph pins that maxTxEvents bounds the
// witness buffer only: the 300th read of a scan closes a G-single cycle, and
// the live verdict must match the offline one.
func TestReadsBeyondWitnessCapReachTheGraph(t *testing.T) {
	const scan = 300
	if scan <= maxTxEvents {
		t.Fatal("scan must exceed the witness buffer")
	}
	events := []histcheck.Event{begin(10, rc)}
	for row := uint64(1); row <= scan; row++ {
		events = append(events, write(10, row, 1))
	}
	events = append(events, commit(10), begin(1, rc), begin(2, rc))
	for row := uint64(1); row <= scan; row++ {
		events = append(events, read(1, row, 1))
	}
	events = append(events,
		write(2, scan, 2), write(2, 1000, 1), commit(2),
		write(1, 1000, 2), commit(1))
	events = hist(events...)

	w := New(Config{SampleRate: 1})
	defer w.Stop()
	feed(t, w, events)

	if st := w.Stats(); st.Shed != 0 || st.Truncated != 0 {
		t.Fatalf("window not clean: %+v", st)
	}
	live, offline := fmt.Sprint(w.Classes()), fmt.Sprint(histcheck.Check(events).Classes())
	if live != offline || !classSet(w.Classes())[histcheck.GSingle] {
		t.Errorf("live %s, offline %s; want both [G-single]", live, offline)
	}
	for _, wit := range w.Witnesses() {
		if !wit.Truncated {
			t.Errorf("witness for %v not marked truncated although T1's buffer overflowed", wit.Txs)
		}
	}
}
