package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// A snapshot checkpoint is one frame (appendFrame, as for a WAL record)
// holding the commit clock and, per table, the schema, the row and
// primary-key allocators, and every *live* latest row version. Dead
// versions are deliberately not persisted — a checkpoint doubles as a vacuum
// of the on-disk representation. The file is written to a temp name, fsynced,
// and renamed over the previous snapshot, so a crash mid-checkpoint leaves
// the old snapshot+log pair fully intact.
const snapVersion byte = 1

// CheckpointStats reports what one Checkpoint pass wrote and reclaimed.
type CheckpointStats struct {
	// Tables and Rows count what the snapshot captured.
	Tables int
	Rows   int
	// SnapshotBytes is the size of the snapshot file written.
	SnapshotBytes int64
	// WALBytesTruncated is the log length the checkpoint made redundant.
	WALBytesTruncated int64
}

// Checkpoint writes a snapshot of the committed state and truncates the WAL.
// It quiesces the commit pipeline (exclusive gate: every in-flight commit
// drains, new ones block) and holds the catalog read lock for the full pass —
// including the truncation — so no commit or DDL record can land in the
// window between the snapshot capture and the log reset. A no-op (nil error,
// zero stats) on in-memory databases.
func (db *Database) Checkpoint() (CheckpointStats, error) {
	var stats CheckpointStats
	if db.wal == nil {
		return stats, nil
	}
	if err := db.point(YieldWALCheckpoint); err != nil {
		return stats, err
	}
	start := time.Now()
	db.pipe.gate.Lock()
	defer db.pipe.gate.Unlock()
	db.catalogMu.RLock()
	defer db.catalogMu.RUnlock()

	payload := []byte{snapVersion}
	payload = binary.AppendUvarint(payload, db.Clock())
	names := make([]string, 0, len(db.tables))
	for name := range db.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	payload = binary.AppendUvarint(payload, uint64(len(names)))
	for _, name := range names {
		t := db.tables[name]
		t.mu.RLock()
		payload = appendSchema(payload, t.schema)
		payload = binary.AppendUvarint(payload, t.nextRow)
		payload = binary.AppendUvarint(payload, t.nextID)
		live := 0
		for id := range t.rows {
			if t.rows[id].live() != nil {
				live++
			}
		}
		payload = binary.AppendUvarint(payload, uint64(live))
		for id := range t.rows {
			if v := t.rows[id].live(); v != nil {
				payload = binary.AppendUvarint(payload, uint64(id))
				payload = binary.AppendUvarint(payload, v.beginTS)
				payload = AppendRow(payload, v.vals)
			}
		}
		t.mu.RUnlock()
		stats.Tables++
		stats.Rows += live
	}

	framed := appendFrame(make([]byte, 0, frameHeaderSize+len(payload)), payload)

	final := filepath.Join(db.opts.DataDir, snapFileName)
	tmp := final + ".tmp"
	if err := writeFileSync(tmp, framed); err != nil {
		return stats, fmt.Errorf("storage: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return stats, fmt.Errorf("storage: checkpoint rename: %w", err)
	}
	if err := syncDir(db.opts.DataDir); err != nil {
		return stats, fmt.Errorf("storage: checkpoint dir sync: %w", err)
	}
	stats.SnapshotBytes = int64(len(framed))

	stats.WALBytesTruncated = db.wal.sizeNow()
	if err := db.wal.truncateAll(); err != nil {
		return stats, err
	}
	mCheckpoints.Inc()
	mCheckpointSeconds.Observe(time.Since(start))
	return stats, nil
}

// sizeNow returns the current log length.
func (w *wal) sizeNow() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// writeFileSync writes data to path and fsyncs it before returning.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-renamed file's entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// loadSnapshot parses a snapshot file's raw bytes and installs its contents
// into a fresh database shell. Returns the snapshot's commit clock and the
// number of rows installed.
func (db *Database) loadSnapshot(raw []byte) (clock uint64, rows int, err error) {
	// The snapshot is bounded by the file, not by the WAL's record limit.
	payload, _, err := cutFrame(raw, math.MaxUint32)
	if err != nil {
		return 0, 0, fmt.Errorf("storage: snapshot: %w", err)
	}
	d := NewDecoder(payload)
	if v := d.Byte(); v != snapVersion {
		return 0, 0, fmt.Errorf("storage: snapshot: unknown version %d", v)
	}
	clock = d.Uvarint()
	nTables := d.Uvarint()
	for i := uint64(0); i < nTables && d.err == nil; i++ {
		s := decodeSchema(d)
		nextRow := d.Uvarint()
		nextID := d.Uvarint()
		nRows := d.Uvarint()
		if d.err != nil {
			break
		}
		if err := s.Validate(); err != nil {
			return 0, 0, fmt.Errorf("storage: snapshot: %w", err)
		}
		t := newTable(s)
		t.nextRow = nextRow
		t.nextID = nextID
		for r := uint64(0); r < nRows && d.err == nil; r++ {
			id := RowID(d.Uvarint())
			beginTS := d.Uvarint()
			vals := d.Row()
			if d.err != nil {
				break
			}
			if uint64(id) > nextRow {
				// The heap is indexed by row id: a corrupt id must not size it.
				return 0, 0, fmt.Errorf("storage: snapshot: row id %d beyond allocator %d", id, nextRow)
			}
			t.installInsert(id, vals, beginTS)
			rows++
		}
		lower := strings.ToLower(s.Name)
		db.tables[lower] = t
		for _, fk := range s.ForeignKeys {
			parentLower := strings.ToLower(fk.ParentTable)
			db.childFKs[parentLower] = append(db.childFKs[parentLower],
				fkEdge{childTable: lower, fk: fk})
		}
	}
	if d.err != nil {
		return 0, 0, fmt.Errorf("storage: snapshot: %w", d.err)
	}
	return clock, rows, nil
}
