package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The log file runs on past the log into zeroed space that appends reserve
// ahead of the tail, and a crash leaves that space in the image. These tests
// take crash images — copies of the log while the store is still open — and
// check that recovery reads the zeros as a clean end and anything else there
// as a torn tail.

// TestWALReservedTailCrashImage recovers exactly the acknowledged commits
// from an image with a reserved tail, treats non-zero bytes after a zero
// length field and a frame whose payload never left the reservation as torn
// tails, and checks that Close trims the file to the log.
func TestWALReservedTailCrashImage(t *testing.T) {
	const n = 20
	dir := t.TempDir()
	db := durableDB(t, dir, Options{})
	mustCreate(t, db, kvSchema("kv"))
	for i := 0; i < n; i++ {
		insertKV(t, db, "kv", fmt.Sprintf("k%d", i), "v")
	}
	logLen := walSize(t, dir)
	image, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(image)) == logLen {
		// The file system reserved nothing; pad the image as if it had.
		t.Logf("no space reserved past the %d-byte log; padding the image", logLen)
		image = append(image, make([]byte, walReserveStep)...)
	}

	// The next commit's frame header, as a crash could leave it: written
	// into the reservation, its payload still zeros.
	insertKV(t, db, "kv", "unacknowledged", "v")
	after, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(after)) < logLen+frameHeaderSize {
		t.Fatalf("the next commit left a %d-byte file after a %d-byte log", len(after), logLen)
	}
	headerOnly := bytes.Clone(image)
	copy(headerOnly[logLen:], after[logLen:logLen+frameHeaderSize])

	garbage := bytes.Clone(image)
	garbage[logLen+100] = 0x5a

	tail := int64(len(image)) - logLen
	for _, c := range []struct {
		name    string
		image   []byte
		torn    int64
		corrupt bool
	}{
		{"reserved", image, 0, false},
		{"garbage after a zero length field", garbage, tail, false},
		{"header without its payload", headerOnly, tail, true},
	} {
		crashed := t.TempDir()
		if err := os.WriteFile(filepath.Join(crashed, walFileName), c.image, 0o644); err != nil {
			t.Fatal(err)
		}
		re := durableDB(t, crashed, Options{})
		st := re.Recovery()
		if st.CommitsReplayed != n || st.DDLReplayed != 1 || st.TornTailBytes != c.torn || st.CorruptTail != c.corrupt {
			t.Errorf("%s: recovery %+v, want %d commits, torn %d, corrupt %v", c.name, st, n, c.torn, c.corrupt)
		}
		if got := countRows(t, re, "kv", nil); got != n {
			t.Errorf("%s: %d rows, want %d", c.name, got, n)
		}
		if got := fileSize(t, crashed); got != logLen {
			t.Errorf("%s: recovery left a %d-byte log file, want %d", c.name, got, logLen)
		}
		if err := re.Close(); err != nil {
			t.Errorf("%s: close: %v", c.name, err)
		}
	}

	want := walSize(t, dir)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, dir); got != want {
		t.Fatalf("closed log file is %d bytes, want the log's %d", got, want)
	}
}

// fileSize is the size of the log file in dir, reservation included.
func fileSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// FuzzScanWAL feeds arbitrary bytes to the log scanner. It may not panic, it
// accounts for every byte, the payloads it returns re-frame to exactly the
// valid prefix, nothing past a zero length field is returned, and only an
// all-zero remainder is a clean end. Plain `go test` replays the checked-in
// corpus (testdata/fuzz/FuzzScanWAL: the format golden's log, that log with a
// reserved tail, and a cut through its last frame); `go test -fuzz
// FuzzScanWAL` searches further.
func FuzzScanWAL(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s := scanWAL(data)
		if s.validLen+s.tornTail != int64(len(data)) {
			t.Fatalf("valid %d + torn %d != %d bytes", s.validLen, s.tornTail, len(data))
		}
		var framed []byte
		for _, p := range s.payloads {
			if len(p) == 0 {
				t.Fatalf("returned an empty payload: a zero length field at byte %d", len(framed))
			}
			framed = appendFrame(framed, p)
		}
		if !bytes.Equal(framed, data[:s.validLen]) {
			t.Fatalf("payloads re-frame to %x, want %x", framed, data[:s.validLen])
		}
		if rest := data[s.validLen:]; s.zeroTail != (len(rest) > 0 && allZero(rest)) {
			t.Fatalf("zeroTail %v for a %d-byte remainder %x", s.zeroTail, len(rest), rest)
		}
	})
}
