package storage

import (
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The on-disk formats are pinned byte for byte: formatSequence drives a fixed
// single-committer sequence of DDL and insert/update/delete/cascade commits
// that touches every value kind, and the log it leaves and the snapshot a
// checkpoint of it writes must equal these hex dumps. Any codec or framing
// refactor that moves a byte fails here before it reaches a real data
// directory.
const (
	walGoldenFile  = "testdata/format_wal.golden"
	snapGoldenFile = "testdata/format_snapshot.golden"
)

// formatSequence runs the fixed sequence against a fresh store in dir and
// returns the WAL bytes before the checkpoint and the snapshot bytes after.
func formatSequence(t *testing.T, dir string, policy SyncPolicy) (walBytes, snapBytes []byte) {
	t.Helper()
	db := durableDB(t, dir, Options{SyncPolicy: policy})
	defer db.Close()
	orgs := &Schema{Name: "orgs", Columns: []Column{
		{Name: "id", Kind: KindInt, PrimaryKey: true},
		{Name: "name", Kind: KindString, NotNull: true},
		{Name: "rating", Kind: KindFloat, Default: Float(2.5)},
	}}
	users := &Schema{
		Name: "users",
		Columns: []Column{
			{Name: "id", Kind: KindInt, PrimaryKey: true},
			{Name: "email", Kind: KindString},
			{Name: "org_id", Kind: KindInt},
			{Name: "admin", Kind: KindBool, Default: Bool(false)},
			{Name: "joined", Kind: KindTime},
			{Name: "ratio", Kind: KindFloat},
		},
		Indexes:     []IndexSpec{{Column: "email", Unique: true, Name: "users_email_idx"}},
		ForeignKeys: []ForeignKey{{Column: "org_id", ParentTable: "orgs", OnDelete: Cascade, Name: "users_org_id_fkey"}},
	}
	notes := &Schema{Name: "notes", Columns: []Column{
		{Name: "id", Kind: KindInt, PrimaryKey: true},
		{Name: "user_id", Kind: KindInt},
		{Name: "body", Kind: KindString, Default: Str("")},
	}}
	for _, s := range []*Schema{orgs, users, notes, kvSchema("doomed")} {
		mustCreate(t, db, s)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.DropTable("doomed"))
	must(db.AddIndex("users", "joined", false))
	must(db.AddForeignKey("notes", "user_id", "users", SetNull))

	zone := time.FixedZone("UTC+5:30", 5*3600+1800)
	commit := func(body func(tx *Tx)) {
		t.Helper()
		tx := db.BeginDefault()
		body(tx)
		must(tx.Commit())
	}
	ins := func(tx *Tx, table string, cols map[string]Value) RowID {
		t.Helper()
		id, _, err := tx.Insert(table, cols)
		must(err)
		return id
	}
	var ann, cy RowID
	commit(func(tx *Tx) {
		ins(tx, "orgs", map[string]Value{"id": Int(1), "name": Str("acme")})
		ins(tx, "orgs", map[string]Value{"id": Int(1 << 40), "name": Str("initech"), "rating": Float(math.Inf(-1))})
		ann = ins(tx, "users", map[string]Value{"email": Str("ann@acme.test"), "org_id": Int(1), "admin": Bool(true),
			"joined": Time(time.Date(2015, 2, 14, 9, 30, 0, 123456789, zone)), "ratio": Float(math.Copysign(0, -1))})
		ins(tx, "users", map[string]Value{"email": Str("böb\x00@acme.test"), "org_id": Int(1),
			"joined": Time(time.Unix(-86400, 1)), "ratio": Float(math.NaN())})
		cy = ins(tx, "users", map[string]Value{"email": Str(""), "org_id": Int(1 << 40), "ratio": Float(3.25)})
		ins(tx, "notes", map[string]Value{"user_id": Int(1), "body": Str(strings.Repeat("x", 200))})
		ins(tx, "notes", map[string]Value{"user_id": Int(3)})
	})
	commit(func(tx *Tx) {
		must(tx.Update("users", ann, map[string]Value{"email": Str("ann@initech.test"), "ratio": Float(-1e300)}))
		ins(tx, "users", map[string]Value{"id": Int(-7), "email": Null(), "org_id": Null()})
	})
	commit(func(tx *Tx) { must(tx.Delete("users", cy)) })
	// Deleting acme cascades to its users, and nulls the note of the one
	// that had a note.
	commit(func(tx *Tx) {
		var acme RowID
		must(tx.Scan("orgs", ScanOptions{Filter: &EqFilter{Column: "name", Value: Str("acme")}},
			func(id RowID, _ []Value) bool { acme = id; return false }))
		must(tx.Delete("orgs", acme))
	})

	walBytes = walLog(t, dir)
	_, err := db.Checkpoint()
	must(err)
	snapBytes, err = os.ReadFile(filepath.Join(dir, snapFileName))
	must(err)
	return walBytes, snapBytes
}

// TestFormatGolden pins the WAL and snapshot bytes of formatSequence, under
// both a fsyncing and a non-fsyncing policy (the policy changes when bytes
// reach the disk, never which bytes), and checks that the store recovers
// from each.
func TestFormatGolden(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncOff} {
		dir := t.TempDir()
		walBytes, snapBytes := formatSequence(t, dir, policy)
		checkHexGolden(t, walGoldenFile, walBytes)
		checkHexGolden(t, snapGoldenFile, snapBytes)
		re := durableDB(t, dir, Options{})
		if st := re.Recovery(); !st.SnapshotLoaded || st.RecordsReplayed != 0 || st.TornTailBytes != 0 {
			t.Errorf("sync=%v: recovery from the checkpoint: %+v", policy, st)
		}
		if err := re.CheckIntegrity(); err != nil {
			t.Errorf("sync=%v: %v", policy, err)
		}
		re.Close()
	}
}

// checkHexGolden compares data with a golden file of hex lines, reporting the
// first differing byte.
func checkHexGolden(t *testing.T, file string, data []byte) {
	t.Helper()
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.ReplaceAll(string(raw), "\n", ""))
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	for i := 0; i < len(data) || i < len(want); i++ {
		if i >= len(data) || i >= len(want) || data[i] != want[i] {
			t.Fatalf("%s: %d bytes, want %d; first difference at byte %d", file, len(data), len(want), i)
		}
	}
}
