package experiment

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"feralcc/internal/db"
	"feralcc/internal/histcheck"
	"feralcc/internal/storage"
)

// TestVerifyHistoryPassesCleanAndEmpty covers the two passing paths: an empty
// history (nothing ran), and a clean sequential one.
func TestVerifyHistoryPassesCleanAndEmpty(t *testing.T) {
	if err := verifyHistory("empty", nil, histcheck.Check(nil)); err != nil {
		t.Fatalf("an empty history should pass: %v", err)
	}

	d := db.Open(storage.Options{RecordHistory: true})
	defer d.Close()
	conn := d.Connect()
	defer conn.Close()
	for _, sql := range []string{
		"CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT, value TEXT)",
		"INSERT INTO kv (key, value) VALUES ('a', 'v0')",
		"UPDATE kv SET value = 'v1' WHERE key = 'a'",
	} {
		if _, err := conn.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	events := d.History()
	if err := verifyHistory("clean", events, histcheck.Check(events)); err != nil {
		t.Fatalf("clean history should pass: %v", err)
	}
}

// TestSaveWitnessWritesReadableJSONL checks the artifact path: the witness
// file lands under $HISTCHECK_WITNESS_DIR with a sanitized name, carries the
// provenance header, and round-trips through the feralcheck reader.
func TestSaveWitnessWritesReadableJSONL(t *testing.T) {
	dir := t.TempDir()
	t.Setenv(WitnessDirEnv, dir)

	events := []histcheck.Event{
		{Seq: 1, Tx: 1, Kind: histcheck.KindBegin, Level: "SERIALIZABLE"},
		{Seq: 2, Tx: 1, Kind: histcheck.KindWrite, Table: "kv", Row: 1, Op: "insert", Version: 10},
		{Seq: 3, Tx: 1, Kind: histcheck.KindCommit},
	}
	path := saveWitness("stress p=8/v=1 (RC)", events)
	if path == "" {
		t.Fatal("saveWitness returned empty path")
	}
	base := filepath.Base(path)
	if strings.ContainsAny(base, " /()=") {
		t.Fatalf("label not sanitized: %q", base)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := histcheck.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("round-trip lost events: got %d want %d", len(got), len(events))
	}

	t.Setenv(WitnessDirEnv, "")
	if p := saveWitness("x", events); p != "" {
		t.Fatalf("unset dir should disable witness capture, got %q", p)
	}
}
