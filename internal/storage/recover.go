package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"
)

// RecoveryStats describes what OpenDir found and replayed.
type RecoveryStats struct {
	// SnapshotLoaded reports whether a snapshot checkpoint was restored, and
	// SnapshotRows how many live rows it contained.
	SnapshotLoaded bool
	SnapshotRows   int
	// RecordsReplayed counts WAL records applied (commits + DDL).
	RecordsReplayed int
	CommitsReplayed int
	DDLReplayed     int
	// TornTailBytes is how many trailing log bytes were discarded because the
	// final record never completely reached the disk; CorruptTail is set when
	// the discarded tail failed its checksum rather than merely being short.
	// Zeros reserved past the log's end are a clean end, not a torn tail.
	TornTailBytes int64
	CorruptTail   bool
}

// Recovery returns what OpenDir replayed when this database was opened.
// Zero-valued for in-memory databases and fresh directories.
func (db *Database) Recovery() RecoveryStats { return db.recovery }

// OpenDir opens a database. When Options.DataDir is empty the result is the
// historical in-memory engine and the error is always nil. Otherwise the
// directory is created if needed, the latest snapshot checkpoint is loaded,
// the write-ahead log's valid prefix is replayed (commits reinstall their
// versions and rebuild indexes and FK edges; DDL records re-run their catalog
// mutations), any torn or corrupt tail (or reserved zeros) is truncated away,
// and the log is reopened for appending — all before the first transaction
// can start.
func OpenDir(opts Options) (*Database, error) {
	o := opts.withDefaults()
	db := newDatabase(o)
	if o.DataDir == "" {
		return db, nil
	}
	recoverStart := time.Now()
	if err := db.point(YieldWALRecover); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", o.DataDir, err)
	}
	// A crash between writing snapshot.db.tmp and the rename leaves a stray
	// temp file; the real snapshot (if any) is still authoritative.
	os.Remove(filepath.Join(o.DataDir, snapFileName+".tmp"))

	if raw, err := os.ReadFile(filepath.Join(o.DataDir, snapFileName)); err == nil {
		clock, rows, serr := db.loadSnapshot(raw)
		if serr != nil {
			return nil, serr
		}
		atomic.StoreUint64(&db.clock, clock)
		db.recovery.SnapshotLoaded = true
		db.recovery.SnapshotRows = rows
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("storage: open snapshot: %w", err)
	}

	walPath := filepath.Join(o.DataDir, walFileName)
	raw, err := os.ReadFile(walPath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("storage: open wal: %w", err)
	}
	scan := scanWAL(raw)
	if !scan.zeroTail {
		db.recovery.TornTailBytes = scan.tornTail
	}
	db.recovery.CorruptTail = scan.corrupt
	off := int64(0)
	for _, payload := range scan.payloads {
		if err := db.point(YieldWALRecover); err != nil {
			return nil, err
		}
		if err := db.replayRecord(payload); err != nil {
			// An undecodable record that passed its checksum means the bytes
			// are intact but unintelligible; trust nothing from here on.
			scan.validLen = off
			db.recovery.TornTailBytes = int64(len(raw)) - off
			db.recovery.CorruptTail = true
			break
		}
		off += frameHeaderSize + int64(len(payload))
		db.recovery.RecordsReplayed++
	}
	if scan.validLen < int64(len(raw)) {
		if err := os.Truncate(walPath, scan.validLen); err != nil {
			return nil, fmt.Errorf("storage: truncate torn wal tail: %w", err)
		}
	}

	db.wal, err = openWAL(walPath, scan.validLen, o.SyncPolicy, db.point)
	if err != nil {
		return nil, fmt.Errorf("storage: open wal for append: %w", err)
	}
	// Continue the CSN sequence from the recovered clock.
	db.pipe.setBase(atomic.LoadUint64(&db.clock))
	mRecoverySeconds.Observe(time.Since(recoverStart))
	mRecoveryRecords.Add(uint64(db.recovery.RecordsReplayed))
	return db, nil
}

// replayRecord applies one decoded WAL record. DDL records re-run the public
// catalog methods (db.wal is still nil during replay, so nothing is
// re-logged); commit records install their versions directly at the recorded
// commit timestamp.
func (db *Database) replayRecord(payload []byte) error {
	d := NewDecoder(payload)
	switch typ := d.Byte(); typ {
	case recCommit:
		return db.replayCommit(d)
	case recGroupCommit:
		// A group-commit frame: replay each embedded commit record in order.
		// The frame is covered by one checksum, so a torn batch was already
		// discarded whole by scanWAL — sub-records are never partially valid.
		n := d.Uvarint()
		for i := uint64(0); i < n && d.err == nil; i++ {
			sub := NewDecoder(d.take(d.Uvarint(), "group commit record"))
			if d.err != nil {
				return d.err
			}
			if sub.Byte() != recCommit {
				return fmt.Errorf("storage: wal group commit: unexpected sub-record type")
			}
			if err := db.replayCommit(sub); err != nil {
				return err
			}
		}
		return d.err
	case recCreateTable:
		s := decodeSchema(d)
		if d.err != nil {
			return d.err
		}
		db.recovery.DDLReplayed++
		return db.CreateTable(s)
	case recDropTable:
		name := d.Str()
		if d.err != nil {
			return d.err
		}
		db.recovery.DDLReplayed++
		return db.DropTable(name)
	case recAddIndex:
		table := d.Str()
		column := d.Str()
		unique := d.Bool()
		if d.err != nil {
			return d.err
		}
		db.recovery.DDLReplayed++
		// Mirror the original semantics: a unique precheck failure still left
		// the index installed, so the same error at replay is not a replay
		// failure.
		if err := db.AddIndex(table, column, unique); err != nil && !errors.Is(err, ErrUniqueViolation) {
			return err
		}
		return nil
	case recAddForeignKey:
		table := d.Str()
		column := d.Str()
		parent := d.Str()
		onDelete := ReferentialAction(d.Byte())
		if d.err != nil {
			return d.err
		}
		db.recovery.DDLReplayed++
		return db.AddForeignKey(table, column, parent, onDelete)
	default:
		return fmt.Errorf("storage: wal record: unknown type %d", typ)
	}
}

// replayCommit reinstalls one committed transaction's writes at its original
// commit timestamp, bumping the per-table row and primary-key allocators so
// new traffic never collides with recovered rows.
func (db *Database) replayCommit(d *Decoder) error {
	commitTS := d.Uvarint()
	nTables := d.Uvarint()
	for i := uint64(0); i < nTables && d.err == nil; i++ {
		name := d.Str()
		nOps := d.Uvarint()
		if d.err != nil {
			return d.err
		}
		t := db.tables[strings.ToLower(name)]
		var pkPos int = -1
		if t != nil {
			if pk := t.schema.PrimaryKey(); pk != "" {
				pkPos = t.schema.ColumnIndex(pk)
			}
		}
		for j := uint64(0); j < nOps && d.err == nil; j++ {
			op := d.Byte()
			id := RowID(d.Uvarint())
			var vals []Value
			if op == walOpInsert || op == walOpUpdate {
				vals = d.Row()
			}
			if d.err != nil {
				return d.err
			}
			if t == nil {
				continue // table dropped by a later record's era; nothing to install
			}
			switch op {
			case walOpInsert:
				t.installInsert(id, vals, commitTS)
				t.bumpRow(id)
			case walOpUpdate:
				t.installUpdate(id, vals, commitTS)
				t.bumpRow(id)
			case walOpDelete:
				t.installDelete(id, commitTS)
			default:
				return fmt.Errorf("storage: wal commit record: unknown op %d", op)
			}
			if vals != nil && pkPos >= 0 && pkPos < len(vals) && vals[pkPos].Kind == KindInt {
				t.bumpID(vals[pkPos].I)
			}
		}
	}
	if d.err != nil {
		return d.err
	}
	if commitTS > atomic.LoadUint64(&db.clock) {
		atomic.StoreUint64(&db.clock, commitTS)
	}
	db.recovery.CommitsReplayed++
	return nil
}

// CheckIntegrity verifies the in-database constraints over the live state:
// every unique index is duplicate-free and every non-NULL foreign-key value
// references a live parent row. It is the post-recovery invariant the crash
// suites assert; an error here after a clean replay indicates a WAL bug.
func (db *Database) CheckIntegrity() error {
	// Quiesce the commit pipeline so no intent is mid-install while the
	// constraint scan walks the tables.
	db.pipe.gate.Lock()
	defer db.pipe.gate.Unlock()
	db.catalogMu.RLock()
	defer db.catalogMu.RUnlock()
	for _, t := range db.tables {
		t.mu.RLock()
		for pos, ix := range t.indexes {
			if ix == nil || !ix.spec.Unique {
				continue
			}
			if err := db.checkExistingUniqueLocked(t, pos); err != nil {
				t.mu.RUnlock()
				return err
			}
		}
		t.mu.RUnlock()
	}
	for parentLower, edges := range db.childFKs {
		parent := db.tables[parentLower]
		if parent == nil {
			continue
		}
		pkPos := parent.schema.ColumnIndex(parent.schema.PrimaryKey())
		if pkPos < 0 {
			continue
		}
		for _, e := range edges {
			child := db.tables[e.childTable]
			if child == nil {
				continue
			}
			pos := child.schema.ColumnIndex(e.fk.Column)
			if pos < 0 {
				continue
			}
			if orphan, ok := findOrphan(child, pos, parent, pkPos); ok {
				return fmt.Errorf("%w: %s.%s = %s has no parent in %s",
					ErrForeignKeyViolation, child.schema.Name, e.fk.Column,
					orphan.Format(), parent.schema.Name)
			}
		}
	}
	return nil
}
