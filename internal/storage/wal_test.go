package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"feralcc/internal/anomalywatch"
	"feralcc/internal/histcheck"
)

func durableDB(t *testing.T, dir string, opts Options) *Database {
	t.Helper()
	opts.DataDir = dir
	db, err := OpenDir(opts)
	if err != nil {
		t.Fatalf("OpenDir(%s): %v", dir, err)
	}
	return db
}

// walLog returns the log in dir: the file up to the end of its last frame.
// Every byte past that must be zero, space reserved ahead of the tail.
func walLog(t *testing.T, dir string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	n := scanWAL(raw).validLen
	if !allZero(raw[n:]) {
		t.Fatalf("wal has non-zero bytes past its last frame (%d of %d bytes)", n, len(raw))
	}
	return raw[:n]
}

func walSize(t *testing.T, dir string) int64 {
	t.Helper()
	return int64(len(walLog(t, dir)))
}

func TestSyncPolicyParse(t *testing.T) {
	cases := map[string]SyncPolicy{"always": SyncAlways, "": SyncAlways, "interval": SyncInterval, "off": SyncOff}
	for in, want := range cases {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
		if in != "" && got.String() != in {
			t.Fatalf("String round trip: %q -> %q", in, got.String())
		}
	}
	if _, err := ParseSyncPolicy("wrong"); err == nil {
		t.Fatal("ParseSyncPolicy accepted garbage")
	}
}

func TestSchemaRoundTrip(t *testing.T) {
	s := &Schema{
		Name: "users",
		Columns: []Column{
			{Name: "id", Kind: KindInt, PrimaryKey: true},
			{Name: "name", Kind: KindString, NotNull: true},
			{Name: "plan", Kind: KindString, Default: Str("free")},
		},
		Indexes: []IndexSpec{
			{Column: "id", Unique: true, Name: "users_pkey"},
			{Column: "name", Unique: true, Name: "users_name_idx"},
		},
		ForeignKeys: []ForeignKey{
			{Column: "org_id", ParentTable: "orgs", OnDelete: Cascade, Name: "users_org_id_fkey"},
		},
	}
	d := NewDecoder(appendSchema(nil, s))
	got := decodeSchema(d)
	if d.err != nil || len(d.b) != 0 {
		t.Fatalf("decode: %v", d.err)
	}
	if got.Name != s.Name || len(got.Columns) != 3 || len(got.Indexes) != 2 || len(got.ForeignKeys) != 1 {
		t.Fatalf("shape mismatch: %+v", got)
	}
	if !got.Columns[0].PrimaryKey || !got.Columns[1].NotNull || got.Columns[2].Default.S != "free" {
		t.Fatalf("column attrs lost: %+v", got.Columns)
	}
	if !got.Indexes[1].Unique || got.Indexes[1].Name != "users_name_idx" {
		t.Fatalf("index attrs lost: %+v", got.Indexes)
	}
	if got.ForeignKeys[0].OnDelete != Cascade || got.ForeignKeys[0].ParentTable != "orgs" {
		t.Fatalf("fk attrs lost: %+v", got.ForeignKeys)
	}
}

func TestScanWALStopsAtDamage(t *testing.T) {
	r1, r2 := appendFrame(nil, []byte("alpha")), appendFrame(nil, []byte("beta-record"))
	whole := append(append([]byte{}, r1...), r2...)

	if s := scanWAL(nil); len(s.payloads) != 0 || s.validLen != 0 || s.tornTail != 0 {
		t.Fatalf("empty scan: %+v", s)
	}
	if s := scanWAL(whole); len(s.payloads) != 2 || s.tornTail != 0 || s.corrupt {
		t.Fatalf("clean scan: %+v", s)
	}
	// Torn: every strict prefix of the second record parses to just the first.
	for cut := int64(len(r1)); cut < int64(len(whole)); cut++ {
		s := scanWAL(whole[:cut])
		if len(s.payloads) != 1 || s.validLen != int64(len(r1)) || s.tornTail != cut-int64(len(r1)) {
			t.Fatalf("cut %d: %+v", cut, s)
		}
	}
	// Corrupt: flip one payload byte of the second record.
	bad := append([]byte{}, whole...)
	bad[len(r1)+frameHeaderSize] ^= 0xff
	if s := scanWAL(bad); len(s.payloads) != 1 || !s.corrupt {
		t.Fatalf("corrupt scan: %+v", s)
	}
	// A nonsense length field is corruption, not an allocation request.
	huge := append([]byte{}, r1...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)
	if s := scanWAL(huge); len(s.payloads) != 1 || !s.corrupt {
		t.Fatalf("huge-length scan: %+v", s)
	}
}

// TestWALFsyncFailureRollsBack proves a failed fsync cannot acknowledge a
// commit whose record might replay: the record is rolled back from the file
// and the next commit lands where the failed one would have.
func TestWALFsyncFailureRollsBack(t *testing.T) {
	dir := t.TempDir()
	fail := false
	db := durableDB(t, dir, Options{FaultHook: func(op string) error {
		if op == "wal.fsync" && fail {
			return errors.New("injected fsync failure")
		}
		return nil
	}})
	mustCreate(t, db, kvSchema("kv"))
	insertKV(t, db, "kv", "a", "1")
	before := walSize(t, dir)

	fail = true
	tx := db.BeginDefault()
	if _, _, err := tx.Insert("kv", map[string]Value{"key": Str("b"), "value": Str("2")}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("commit survived fsync failure")
	}
	if got := walSize(t, dir); got != before {
		t.Fatalf("wal grew across failed commit: %d -> %d", before, got)
	}
	fail = false
	insertKV(t, db, "kv", "c", "3")
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re := durableDB(t, dir, Options{})
	defer re.Close()
	if n := countRows(t, re, "kv", nil); n != 2 {
		t.Fatalf("recovered %d rows, want 2 (a and c, never b)", n)
	}
	if n := countRows(t, re, "kv", &EqFilter{Column: "key", Value: Str("b")}); n != 0 {
		t.Fatal("aborted commit replayed")
	}
}

// TestWALAppendFailureAborts: an append fault leaves nothing in the log and
// nothing installed, and the failed commit is booked as a WAL-stage abort —
// counted under reason="wal" even when the error carries a conflict sentinel,
// reported wrapped, recorded with the bare cause as its abort reason, and
// never arming the live checker's conflict escalation.
func TestWALAppendFailureAborts(t *testing.T) {
	dir := t.TempDir()
	fail := false
	injected := fmt.Errorf("injected append failure: %w", ErrSerialization)
	db := durableDB(t, dir, Options{
		RecordHistory: true,
		LiveCheck:     &anomalywatch.Config{SampleRate: 0},
		FaultHook: func(op string) error {
			if op == "wal.append" && fail {
				return injected
			}
			return nil
		},
	})
	mustCreate(t, db, kvSchema("kv"))
	fail = true
	walAborts, conflictAborts := mAbortsWAL.Value(), mAbortsSerialization.Value()
	tx := db.BeginDefault()
	if _, _, err := tx.Insert("kv", map[string]Value{"key": Str("x"), "value": Str("1")}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	err := tx.Commit()
	if !errors.Is(err, injected) || err.Error() != "commit aborted: "+injected.Error() {
		t.Fatalf("commit err = %v, want the injected failure wrapped as a commit abort", err)
	}
	if got := mAbortsWAL.Value() - walAborts; got != 1 {
		t.Errorf("wal aborts counted %d, want 1", got)
	}
	if got := mAbortsSerialization.Value() - conflictAborts; got != 0 {
		t.Errorf("serialization aborts counted %d for a WAL-stage failure", got)
	}
	hist := db.History()
	if last := hist[len(hist)-1]; last.Kind != histcheck.KindAbort || last.Reason != injected.Error() {
		t.Errorf("last event = %+v, want an abort with reason %q", last, injected)
	}
	if err := db.CreateTable(kvSchema("other")); err == nil {
		t.Fatal("DDL survived append failure")
	}
	fail = false
	if n := countRows(t, db, "kv", nil); n != 0 {
		t.Fatalf("aborted commit visible: %d rows", n)
	}
	if esc := db.Watcher().Stats().Escalations; esc != 0 {
		t.Errorf("WAL-stage failure escalated live sampling for %d transactions", esc)
	}
	if _, err := db.Table("other"); err == nil {
		t.Fatal("aborted DDL visible")
	}
	db.Close()
}

func TestSyncIntervalPolicy(t *testing.T) {
	dir := t.TempDir()
	db := durableDB(t, dir, Options{SyncPolicy: SyncInterval})
	mustCreate(t, db, kvSchema("kv"))
	for i := 0; i < 10; i++ {
		insertKV(t, db, "kv", "k"+formatRowID(RowID(i)), "v")
	}
	// The commits were acknowledged unsynced; the background ticker must
	// flush them within a few walSyncInterval periods, before any Close.
	deadline := time.Now().Add(5 * time.Second)
	for {
		db.wal.mu.Lock()
		dirty := db.wal.dirty
		db.wal.mu.Unlock()
		if !dirty {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("interval syncer never flushed the log")
		}
		time.Sleep(walSyncInterval / 5)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	re := durableDB(t, dir, Options{})
	defer re.Close()
	if n := countRows(t, re, "kv", nil); n != 10 {
		t.Fatalf("recovered %d rows, want 10", n)
	}
}

// TestCommitAfterCloseFails: once Close has closed the log, a commit returns
// promptly with ErrClosed instead of waiting on a batch nobody writes, the
// error is sticky rather than the poisoned state a write to the closed file
// would leave, DDL is refused the same way, and closing again is a no-op.
// Twenty rounds, because a wrong close path fails only some of the time.
func TestCommitAfterCloseFails(t *testing.T) {
	for round := 0; round < 20; round++ {
		db := durableDB(t, t.TempDir(), Options{})
		mustCreate(t, db, kvSchema("kv"))
		if err := db.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		for attempt := 0; attempt < 2; attempt++ {
			tx := db.BeginDefault()
			if _, _, err := tx.Insert("kv", map[string]Value{"key": Str("x")}); err != nil {
				t.Fatalf("insert: %v", err)
			}
			done := make(chan error, 1)
			go func() { done <- tx.Commit() }()
			select {
			case err := <-done:
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("round %d attempt %d: commit after Close = %v, want ErrClosed", round, attempt, err)
				}
			case <-time.After(500 * time.Millisecond):
				t.Fatalf("round %d attempt %d: commit after Close still blocked after 500ms", round, attempt)
			}
		}
		if err := db.CreateTable(kvSchema("other")); !errors.Is(err, ErrClosed) {
			t.Fatalf("round %d: DDL after Close = %v, want ErrClosed", round, err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("round %d: second close: %v", round, err)
		}
	}
}

func TestInMemoryStaysInMemory(t *testing.T) {
	db := Open(Options{})
	defer db.Close()
	mustCreate(t, db, kvSchema("kv"))
	insertKV(t, db, "kv", "a", "1")
	if db.wal != nil {
		t.Fatal("in-memory database opened a wal")
	}
	if st := db.Recovery(); st != (RecoveryStats{}) {
		t.Fatalf("in-memory recovery stats: %+v", st)
	}
	if stats, err := db.Checkpoint(); err != nil || stats != (CheckpointStats{}) {
		t.Fatalf("in-memory checkpoint: %+v, %v", stats, err)
	}
}
