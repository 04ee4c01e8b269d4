package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"feralcc/internal/obs"
)

// The write-ahead log is a single append-only file of records living in
// Options.DataDir. Every record is one checksummed frame (appendFrame) whose
// payload's first byte is a record type. Commit records are appended by
// whichever committer leads their group-commit batch, after validation and
// before install, so a record reaches the log if and only if the commit will
// be acknowledged; DDL records are appended under catalogMu before the catalog
// mutation becomes visible. Recovery scans the log until the first torn or
// checksum-corrupt record, replays the valid prefix, and truncates the rest —
// so the recovered state is always exactly a committed prefix, never a
// half-applied transaction.
//
// The file may run past the log: appends reserve zeroed space ahead of the
// tail (wal.reserve), and a zero length field ends the log (scanWAL).
const (
	walFileName  = "wal.log"
	snapFileName = "snapshot.db"

	// walMaxRecord bounds a single record; a length field beyond it is treated
	// as a corrupt tail rather than an allocation request.
	walMaxRecord = 64 << 20

	// walReserveStep is the granularity of the space reserved ahead of the
	// log's tail, and the largest frame buffer a wal keeps between appends.
	walReserveStep = 64 << 10
)

// WAL record types (first payload byte).
const (
	recCommit        byte = 1
	recCreateTable   byte = 2
	recDropTable     byte = 3
	recAddIndex      byte = 4
	recAddForeignKey byte = 5
	// recGroupCommit frames a whole group-commit batch: a uvarint transaction
	// count followed by length-prefixed complete recCommit payloads (type byte
	// included), in CSN order. One frame, one checksum, one fsync for the
	// batch; recovery replays the sub-records as if each had its own frame, so
	// a torn frame discards the batch atomically — acknowledged commits are
	// exactly the durable frames.
	recGroupCommit byte = 6
)

// SyncPolicy selects when the WAL is fsynced to stable storage.
type SyncPolicy uint8

const (
	// SyncAlways fsyncs after every appended record (commit and DDL) before
	// the operation is acknowledged — PostgreSQL's synchronous_commit=on.
	// The safe default.
	SyncAlways SyncPolicy = iota
	// SyncInterval writes records immediately but fsyncs from a background
	// ticker every walSyncInterval; a crash may lose the last interval's
	// acknowledged commits (never corrupt the log).
	SyncInterval
	// SyncOff never fsyncs; the OS flushes at its leisure. Process death
	// (as opposed to machine death) still loses nothing, because records are
	// written to the kernel before the commit is acknowledged.
	SyncOff
)

// walSyncInterval is the background fsync period under SyncInterval.
const walSyncInterval = 50 * time.Millisecond

// String returns the flag-style name of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", uint8(p))
	}
}

// ParseSyncPolicy maps a flag value to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always", "":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	default:
		return 0, fmt.Errorf("storage: unknown sync policy %q (want always, interval, or off)", s)
	}
}

// wal owns the append side of the log. Appends take wal.mu (innermost lock:
// callers hold catalogMu above it, never the reverse), build the frame in buf,
// write it with WriteAt at a self-tracked offset, and fsync per policy. A
// failed fsync or short write rolls the file back to the pre-append offset so
// an aborted commit can never be replayed; if even the rollback fails the log
// is poisoned and every later append fails rather than diverging from memory.
type wal struct {
	mu        sync.Mutex
	f         *os.File
	size      int64  // the log's length: the end of its last frame
	fileSize  int64  // the file's length: size plus the space reserved past it
	noReserve bool   // the file system cannot reserve space: frames grow the file
	buf       []byte // the frame being built (frameBuf), kept if small
	policy    SyncPolicy
	point     func(name string) error // Database.point, passed at the wal.* points
	dirty     bool                    // bytes written since the last fsync
	broken    error                   // sticky poison after an unrecoverable failure

	stop chan struct{} // closes the interval syncer
	done chan struct{}
}

// openWAL opens (creating if absent) the log file and positions the writer at
// size, which recovery has already truncated to the last valid record.
func openWAL(path string, size int64, policy SyncPolicy, point func(string) error) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	w := &wal{f: f, size: size, fileSize: size, policy: policy, point: point}
	if policy == SyncInterval {
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.syncLoop()
	}
	return w, nil
}

// append writes one DDL record durably per the sync policy. On any failure
// the log keeps its pre-append length, so the caller can abort the catalog
// mutation knowing recovery will never observe it.
func (w *wal) append(payload []byte) error {
	start := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.broken
	}
	if err := w.point(YieldWALAppend); err != nil {
		return err
	}
	if _, err := w.writeFrame(append(w.frameBuf(), payload...), 1); err != nil {
		return err
	}
	mWALAppends.Inc()
	mWALAppendSeconds.Observe(time.Since(start))
	return nil
}

// frameBuf returns w.buf emptied down to a frame header placeholder, for the
// payload to be appended to and writeFrame to seal. Caller holds w.mu.
func (w *wal) frameBuf() []byte {
	return append(w.buf[:0], make([]byte, frameHeaderSize)...)
}

// writeFrame seals frame (built on frameBuf) and writes it at the log tail
// and, under SyncAlways, fsyncs it, passing the wal.fsync point once per
// record the frame carries first — so chaos suites keep per-transaction
// coverage while a batch is synced once. Any write, fault or fsync failure
// rolls the file back to the pre-frame offset: nothing in the frame was
// acknowledged, nothing will be replayed. Returns the time spent in the fsync
// itself (zero when the policy defers it). Caller holds w.mu.
func (w *wal) writeFrame(frame []byte, records int) (time.Duration, error) {
	sealFrame(frame)
	if cap(frame) <= walReserveStep {
		w.buf = frame[:0]
	}
	off := w.size
	end := off + int64(len(frame))
	w.reserve(end)
	if _, err := w.f.WriteAt(frame, off); err != nil {
		w.rollbackTo(off)
		return 0, fmt.Errorf("storage: wal append: %w", err)
	}
	w.size = end
	w.fileSize = max(w.fileSize, end)
	w.dirty = true
	if w.policy != SyncAlways {
		return 0, nil
	}
	for i := 0; i < records; i++ {
		if err := w.point(YieldWALFsync); err != nil {
			w.rollbackTo(off)
			return 0, err
		}
	}
	fd, err := w.syncFileLocked()
	if err != nil {
		w.rollbackTo(off)
	}
	return fd, err
}

// reserve readies the file for a write that ends at end: if end lies past the
// file, the file is extended to the next multiple of walReserveStep with
// zeros (reserveFile). A frame written inside the reserved space changes no file
// size, so its fsync flushes data instead of journaling a size change on every
// commit. If the reservation fails the write extends the file itself, as it
// would without one; a file system that cannot reserve at all is not asked
// again. Caller holds w.mu.
func (w *wal) reserve(end int64) {
	if end <= w.fileSize || w.noReserve {
		return
	}
	to := (end + walReserveStep - 1) / walReserveStep * walReserveStep
	if err := reserveFile(w.f, w.fileSize, to-w.fileSize); err != nil {
		w.noReserve = errors.Is(err, errors.ErrUnsupported)
		return
	}
	w.fileSize = to
}

// fsyncLocked flushes written records to stable storage on behalf of the
// interval syncer and close. Caller holds w.mu.
func (w *wal) fsyncLocked() error {
	if !w.dirty {
		return nil
	}
	if err := w.point(YieldWALFsync); err != nil {
		return err
	}
	_, err := w.syncFileLocked()
	return err
}

// syncFileLocked is the fsync itself, after the wal.fsync point has passed;
// it returns how long the fsync took.
func (w *wal) syncFileLocked() (time.Duration, error) {
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return 0, fmt.Errorf("storage: wal fsync: %w", err)
	}
	d := time.Since(start)
	mWALFsyncs.Inc()
	mWALFsyncSeconds.Observe(d)
	w.dirty = false
	return d, nil
}

// appendGroup writes a batch of commit records as one frame — a plain
// recCommit frame for a batch of one, so logs of single committers carry no
// group framing, a recGroupCommit frame otherwise — and fsyncs once per the
// policy.
//
// Fault-point semantics stay per-transaction: the wal.append point is passed
// for every submission (a failure drops just that submission from the frame
// and records its error in its err), and writeFrame passes wal.fsync once per
// surviving submission before the single real fsync. A frame failure is
// returned for every survivor.
//
// The returned slice holds the submissions whose outcome is the returned
// error; submissions rejected at the append point already carry their
// individual errors.
func (w *wal) appendGroup(batch []*walSubmission) ([]*walSubmission, error) {
	start := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return batch, w.broken
	}
	survivors := make([]*walSubmission, 0, len(batch))
	for _, s := range batch {
		if err := w.point(YieldWALAppend); err != nil {
			s.err = err
			continue
		}
		survivors = append(survivors, s)
	}
	if len(survivors) == 0 {
		return nil, nil
	}
	frame := w.frameBuf()
	if len(survivors) == 1 {
		frame = append(frame, survivors[0].payload...)
	} else {
		frame = append(frame, recGroupCommit)
		frame = binary.AppendUvarint(frame, uint64(len(survivors)))
		for _, s := range survivors {
			frame = binary.AppendUvarint(frame, uint64(len(s.payload)))
			frame = append(frame, s.payload...)
		}
	}
	fd, err := w.writeFrame(frame, len(survivors))
	if err != nil {
		return survivors, err
	}
	d := time.Since(start)
	mWALAppends.Add(uint64(len(survivors)))
	mWALAppendSeconds.Observe(d)
	for _, s := range survivors {
		s.tr.Add(obs.SpanWALFsync, fd)
		s.tr.Add(obs.SpanWALAppend, d)
	}
	return survivors, nil
}

// rollbackTo truncates the file back to off after a failed append or fsync,
// dropping any reservation with the bytes. Failure to roll back poisons the
// log: memory and disk would disagree about the aborted record, so no further
// append may succeed.
func (w *wal) rollbackTo(off int64) {
	if err := w.f.Truncate(off); err != nil {
		w.broken = fmt.Errorf("storage: wal unrecoverable (rollback failed): %w", err)
		return
	}
	w.size, w.fileSize = off, off
}

// truncateAll resets the log after a checkpoint made its contents redundant.
// Caller must have quiesced commits and DDL (Checkpoint holds the pipeline
// gate exclusively, plus catalogMu).
func (w *wal) truncateAll() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return w.broken
	}
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("storage: wal truncate: %w", err)
	}
	w.size, w.fileSize = 0, 0
	w.dirty = false
	return w.f.Sync()
}

// syncLoop is the SyncInterval background fsync. Errors are retried on the
// next tick (dirty stays set).
func (w *wal) syncLoop() {
	defer close(w.done)
	t := time.NewTicker(walSyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			w.mu.Lock()
			_ = w.fsyncLocked()
			w.mu.Unlock()
		case <-w.stop:
			return
		}
	}
}

// close trims the reservation, flushes and closes the log file and stops the
// interval syncer, so a cleanly closed log file holds exactly its frames.
// Every later append fails with ErrClosed; closing again is a no-op.
func (w *wal) close() error {
	w.mu.Lock()
	if w.broken == ErrClosed {
		w.mu.Unlock()
		return nil
	}
	var err error
	if w.fileSize > w.size {
		if err = w.f.Truncate(w.size); err != nil {
			err = fmt.Errorf("storage: wal trim: %w", err)
		}
	}
	if ferr := w.fsyncLocked(); err == nil {
		err = ferr
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.broken = ErrClosed
	w.mu.Unlock()
	if w.stop != nil {
		close(w.stop)
		<-w.done
	}
	return err
}

// --- record payload encoding --------------------------------------------------

// Schema column flag bits.
const (
	schemaColNotNull    = 1 << 0
	schemaColPrimaryKey = 1 << 1
	schemaColHasDefault = 1 << 2
)

// appendSchema serializes a schema (shared by CreateTable records and
// snapshots).
func appendSchema(b []byte, s *Schema) []byte {
	b = AppendString(b, s.Name)
	b = binary.AppendUvarint(b, uint64(len(s.Columns)))
	for _, c := range s.Columns {
		b = AppendString(b, c.Name)
		b = append(b, byte(c.Kind))
		var flags byte
		if c.NotNull {
			flags |= schemaColNotNull
		}
		if c.PrimaryKey {
			flags |= schemaColPrimaryKey
		}
		if !c.Default.IsNull() {
			flags |= schemaColHasDefault
		}
		b = append(b, flags)
		if !c.Default.IsNull() {
			b = AppendValue(b, c.Default)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(s.Indexes)))
	for _, ix := range s.Indexes {
		b = AppendString(b, ix.Column)
		b = AppendString(b, ix.Name)
		b = AppendBool(b, ix.Unique)
	}
	b = binary.AppendUvarint(b, uint64(len(s.ForeignKeys)))
	for _, fk := range s.ForeignKeys {
		b = AppendString(b, fk.Column)
		b = AppendString(b, fk.ParentTable)
		b = append(b, byte(fk.OnDelete))
		b = AppendString(b, fk.Name)
	}
	return b
}

// encodeCreateTable builds a recCreateTable payload.
func encodeCreateTable(s *Schema) []byte {
	return appendSchema([]byte{recCreateTable}, s)
}

// encodeDropTable builds a recDropTable payload.
func encodeDropTable(name string) []byte {
	return AppendString([]byte{recDropTable}, name)
}

// encodeAddIndex builds a recAddIndex payload.
func encodeAddIndex(table, column string, unique bool) []byte {
	b := AppendString([]byte{recAddIndex}, table)
	b = AppendString(b, column)
	return AppendBool(b, unique)
}

// encodeAddForeignKey builds a recAddForeignKey payload.
func encodeAddForeignKey(table, column, parent string, onDelete ReferentialAction) []byte {
	b := AppendString([]byte{recAddForeignKey}, table)
	b = AppendString(b, column)
	b = AppendString(b, parent)
	return append(b, byte(onDelete))
}

// walOp codes within a commit record.
const (
	walOpInsert byte = 1
	walOpUpdate byte = 2
	walOpDelete byte = 3
)

// encodeCommit builds a recCommit payload from a transaction's write buffer.
// Tables are emitted in sorted-name order and ops in execution (seq) order so
// the bytes are deterministic for a given logical commit.
func encodeCommit(writes map[string]map[RowID]*txWrite, commitTS uint64) []byte {
	b := []byte{recCommit}
	b = binary.AppendUvarint(b, commitTS)
	names := make([]string, 0, len(writes))
	for name, rows := range writes {
		if len(rows) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		rows := writes[name]
		b = AppendString(b, name)
		type opEntry struct {
			id RowID
			w  *txWrite
		}
		ops := make([]opEntry, 0, len(rows))
		for id, w := range rows {
			ops = append(ops, opEntry{id, w})
		}
		sort.Slice(ops, func(i, j int) bool { return ops[i].w.seq < ops[j].w.seq })
		b = binary.AppendUvarint(b, uint64(len(ops)))
		for _, e := range ops {
			switch e.w.op {
			case opInsert:
				b = append(b, walOpInsert)
				b = binary.AppendUvarint(b, uint64(e.id))
				b = AppendRow(b, e.w.vals)
			case opUpdate:
				b = append(b, walOpUpdate)
				b = binary.AppendUvarint(b, uint64(e.id))
				b = AppendRow(b, e.w.vals)
			case opDelete:
				b = append(b, walOpDelete)
				b = binary.AppendUvarint(b, uint64(e.id))
			}
		}
	}
	return b
}

// --- record payload decoding --------------------------------------------------

// decodeSchema reads a schema written by appendSchema.
func decodeSchema(d *Decoder) *Schema {
	s := &Schema{Name: d.Str()}
	for n := d.Count(); n > 0 && d.err == nil; n-- {
		c := Column{Name: d.Str(), Kind: Kind(d.Byte())}
		flags := d.Byte()
		c.NotNull = flags&schemaColNotNull != 0
		c.PrimaryKey = flags&schemaColPrimaryKey != 0
		if flags&schemaColHasDefault != 0 {
			c.Default = d.Value()
		}
		s.Columns = append(s.Columns, c)
	}
	for n := d.Count(); n > 0 && d.err == nil; n-- {
		ix := IndexSpec{Column: d.Str(), Name: d.Str()}
		ix.Unique = d.Bool()
		s.Indexes = append(s.Indexes, ix)
	}
	for n := d.Count(); n > 0 && d.err == nil; n-- {
		fk := ForeignKey{Column: d.Str(), ParentTable: d.Str()}
		fk.OnDelete = ReferentialAction(d.Byte())
		fk.Name = d.Str()
		s.ForeignKeys = append(s.ForeignKeys, fk)
	}
	return s
}

// --- log scanning -------------------------------------------------------------

// walScan is the result of reading a log file tolerantly: the payloads of
// every intact record, the byte length of that valid prefix, and what (if
// anything) was wrong with the tail.
type walScan struct {
	payloads [][]byte
	validLen int64
	tornTail int64 // bytes beyond the valid prefix (0 = clean EOF)
	zeroTail bool  // those bytes are all zero: reserved space, a clean end
	corrupt  bool  // tail failed its checksum (vs merely being cut short)
}

// scanWAL splits raw log bytes into records, stopping at the first torn or
// corrupt one. A record cut mid-header or mid-payload is "torn" (the classic
// crash-during-append); an intact-length record whose checksum fails is
// "corrupt" (bit rot or a torn sector inside the payload). Either way
// everything before it is trusted and everything from it on is discarded.
//
// A zero length field (as much of it as the data holds) ends the log: no
// frame is empty, since every payload starts with its record type, so zeros
// there are reserved space that no frame reached. An all-zero remainder is a
// clean end; anything non-zero after the zero length field is a torn tail.
func scanWAL(data []byte) walScan {
	var s walScan
	rest := data
	for len(rest) > 0 && !allZero(rest[:min(len(rest), 4)]) {
		payload, next, err := cutFrame(rest, walMaxRecord)
		if err != nil {
			s.corrupt = err == errFrameCorrupt
			break
		}
		s.payloads = append(s.payloads, payload)
		rest = next
	}
	s.validLen = int64(len(data) - len(rest))
	s.tornTail = int64(len(rest))
	s.zeroTail = len(rest) > 0 && allZero(rest)
	return s
}

// allZero reports whether every byte of b is zero.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
