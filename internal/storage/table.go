package storage

import (
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// RowID identifies a row slot within a table for its entire lifetime,
// across all versions.
type RowID uint64

func formatRowID(id RowID) string { return strconv.FormatUint(uint64(id), 10) }

// version is one MVCC version of a row. beginTS is the commit timestamp of
// the transaction that wrote it; endTS is the commit timestamp of the
// transaction that superseded or deleted it (0 while current). Committed
// versions are immutable except for endTS, which is written once under the
// commit lock.
type version struct {
	beginTS uint64
	endTS   uint64
	vals    []Value
}

// visibleAt reports whether the version is visible to a reader at ts.
func (v *version) visibleAt(ts uint64) bool {
	return v.beginTS <= ts && (v.endTS == 0 || v.endTS > ts)
}

// versionChain is one heap slot: the row's newest committed version inline,
// and the versions it superseded, oldest first. A slot that is not used
// (never installed, or reclaimed by vacuum) is empty. Its methods accept a
// nil chain (a slot beyond the heap) and report no version.
//
// Pointers into a slot (the chain itself, &head) are valid only while the
// table's mu is held: installInsert may move the whole heap.
type versionChain struct {
	head  version
	older []*version
	used  bool
}

// visible returns the version visible at ts, or nil.
func (c *versionChain) visible(ts uint64) *version {
	if c == nil || !c.used {
		return nil
	}
	if c.head.visibleAt(ts) {
		return &c.head
	}
	for i := len(c.older) - 1; i >= 0; i-- {
		if c.older[i].visibleAt(ts) {
			return c.older[i]
		}
	}
	return nil
}

// latest returns the most recent committed version (live or deleted), or nil.
func (c *versionChain) latest() *version {
	if c == nil || !c.used {
		return nil
	}
	return &c.head
}

// live returns the most recent committed version if it is not deleted, or nil.
func (c *versionChain) live() *version {
	if v := c.latest(); v != nil && v.endTS == 0 {
		return v
	}
	return nil
}

// count returns how many versions the slot holds.
func (c *versionChain) count() int {
	if !c.used {
		return 0
	}
	return len(c.older) + 1
}

// eachVals calls fn with the image of every version in the slot.
func (c *versionChain) eachVals(fn func([]Value)) {
	if !c.used {
		return
	}
	for _, v := range c.older {
		fn(v.vals)
	}
	fn(c.head.vals)
}

// index is a secondary index bucket map: value key -> the ascending ids of
// the rows whose chain has ever carried that key. Buckets are supersets of the
// live rows — readers re-check visibility and the actual column value against
// their snapshot — which keeps old snapshots correct without index versioning.
type index struct {
	spec    IndexSpec
	buckets map[string][]RowID
}

func newIndex(spec IndexSpec) *index {
	return &index{spec: spec, buckets: make(map[string][]RowID)}
}

// add files id under key, keeping the bucket sorted and duplicate-free. Ids
// mostly arrive in ascending order, so the common case is an append.
func (ix *index) add(key string, id RowID) {
	b := ix.buckets[key]
	if n := len(b); n == 0 || b[n-1] < id {
		ix.buckets[key] = append(b, id)
		return
	}
	if i, found := slices.BinarySearch(b, id); !found {
		ix.buckets[key] = slices.Insert(b, i, id)
	}
}

// entries counts the ids filed across all buckets.
func (ix *index) entries() int {
	n := 0
	for _, b := range ix.buckets {
		n += len(b)
	}
	return n
}

// table is the physical storage for one schema.
//
// rows is the heap: a dense slot array indexed by RowID (allocRow counts from
// 1, so slot 0 is never used). A slot is empty while its row is uninstalled —
// allocated by a transaction that has not committed yet or never will — and
// again once vacuum has reclaimed it. The heap is therefore always in scan
// order, and a point lookup is an array index. Beside it, colHash[c][id] is
// valueHash of slot id's head image in column c (see scanStep); both are
// written only under mu held exclusively.
type table struct {
	schema *Schema

	// Strings every statement needs, built once: the lower-cased table name,
	// the key naming the whole table as a lock resource and as a predicate,
	// and per column position the prefix of its value-predicate keys.
	lower      string
	tableKey   string
	predPrefix []string

	mu      sync.RWMutex
	rows    []versionChain
	colHash [][]uint64
	indexes []*index // by column position; nil where the column has no index

	nextRow uint64 // atomic: row slot allocator
	nextID  uint64 // atomic: primary-key sequence
}

func newTable(schema *Schema) *table {
	lower := strings.ToLower(schema.Name)
	t := &table{
		schema:     schema,
		lower:      lower,
		tableKey:   tableLockKey(lower),
		predPrefix: make([]string, len(schema.Columns)),
		colHash:    make([][]uint64, len(schema.Columns)),
		indexes:    make([]*index, len(schema.Columns)),
	}
	for i := range schema.Columns {
		t.predPrefix[i] = predLockKey(lower, strings.ToLower(schema.Columns[i].Name), "")
	}
	for _, spec := range schema.Indexes {
		t.indexes[schema.ColumnIndex(spec.Column)] = newIndex(spec)
	}
	return t
}

// predKey names the predicate "column pos = the value encoded by valueKey",
// both as a lock resource and as a certification footprint entry.
func (t *table) predKey(pos int, valueKey string) string {
	return t.predPrefix[pos] + valueKey
}

// allocRow reserves a fresh row slot id.
func (t *table) allocRow() RowID {
	return RowID(atomic.AddUint64(&t.nextRow, 1))
}

// allocID reserves the next primary-key value. Like database sequences, ids
// consumed by aborted transactions are not reused.
func (t *table) allocID() int64 {
	return int64(atomic.AddUint64(&t.nextID, 1))
}

// bumpID raises the sequence to at least v, for explicit-id inserts.
func (t *table) bumpID(v int64) {
	if v <= 0 {
		return
	}
	for {
		cur := atomic.LoadUint64(&t.nextID)
		if cur >= uint64(v) {
			return
		}
		if atomic.CompareAndSwapUint64(&t.nextID, cur, uint64(v)) {
			return
		}
	}
}

// bumpRow raises the row-slot allocator to at least v, so rows installed by
// recovery never collide with freshly allocated slots.
func (t *table) bumpRow(v RowID) {
	for {
		cur := atomic.LoadUint64(&t.nextRow)
		if cur >= uint64(v) {
			return
		}
		if atomic.CompareAndSwapUint64(&t.nextRow, cur, uint64(v)) {
			return
		}
	}
}

// installInsert adds a committed version for a new row and registers all its
// index keys. Caller holds the commit lock; takes the table write lock.
func (t *table) installInsert(id RowID, vals []Value, commitTS uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Installs run in commit order, not allocation order, so the heap may have
	// to grow past slots that are still (or forever) empty.
	if grow := int(id) + 1 - len(t.rows); grow > 0 {
		t.rows = append(t.rows, make([]versionChain, grow)...)
		for c := range t.colHash {
			t.colHash[c] = append(t.colHash[c], make([]uint64, grow)...)
		}
	}
	t.rows[id] = versionChain{used: true}
	t.setHead(id, version{beginTS: commitTS, vals: vals})
	t.indexVersion(id, vals)
}

// installUpdate supersedes the current version of id with vals.
func (t *table) installUpdate(id RowID, vals []Value, commitTS uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.chain(id)
	if c == nil {
		return
	}
	prev := c.head // moves to older, sharing its image: images are immutable
	if prev.endTS == 0 {
		prev.endTS = commitTS
	}
	c.older = append(c.older, &prev)
	t.setHead(id, version{beginTS: commitTS, vals: vals})
	t.indexVersion(id, vals)
}

// installDelete terminates the current version of id.
func (t *table) installDelete(id RowID, commitTS uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if cur := t.chain(id).live(); cur != nil {
		cur.endTS = commitTS
	}
}

// setHead makes v the head of the used slot id and hashes its image into
// colHash. Caller holds mu exclusively.
func (t *table) setHead(id RowID, v version) {
	t.rows[id].head = v
	for c := range t.colHash {
		var h uint64
		if c < len(v.vals) {
			h = valueHash(&v.vals[c])
		}
		t.colHash[c][id] = h
	}
}

// indexVersion registers vals under every declared index. Caller holds mu.
func (t *table) indexVersion(id RowID, vals []Value) {
	for pos, ix := range t.indexes {
		if ix != nil && pos < len(vals) {
			ix.add(vals[pos].Key(), id)
		}
	}
}

// chain returns heap slot id, nil when the slot is empty or beyond the heap.
// Callers must hold mu, and must not keep the pointer past releasing it.
func (t *table) chain(id RowID) *versionChain {
	if id < RowID(len(t.rows)) && t.rows[id].used {
		return &t.rows[id]
	}
	return nil
}

// indexCandidates returns, in ascending order, the row ids the index on
// column pos files under key — a superset of the rows that carry it now. The
// boolean is false when the column has no index. The bucket is already sorted,
// so scans visit rows in a map-iteration-independent order, as byte-stable
// histories under the deterministic scheduler require; it is copied because
// the caller reads it after the lock is released and may append to it.
func (t *table) indexCandidates(pos int, key string) ([]RowID, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix := t.indexes[pos]
	if ix == nil {
		return nil, false
	}
	return slices.Clone(ix.buckets[key]), true
}

// liveMatches returns, in ascending order, the ids of the rows whose latest
// committed version is live and carries val in column pos: the committed-state
// probe of commit validation (unique keys, FK parents, cascade children). It
// narrows through the column's index when there is one and walks the heap
// otherwise.
func (t *table) liveMatches(pos int, val Value) []RowID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []RowID
	match := func(id RowID) {
		if v := t.chain(id).live(); v != nil && Equal(v.vals[pos], val) {
			out = append(out, id)
		}
	}
	if ix := t.indexes[pos]; ix != nil {
		for _, id := range ix.buckets[val.Key()] {
			match(id)
		}
	} else {
		for id := range t.rows {
			match(RowID(id))
		}
	}
	return out
}

// scanChunk bounds how many slots or candidates one scan step examines under
// a single RLock: enough to amortise the lock over a few microseconds of
// work, few enough that installers never wait for a whole table.
const scanChunk = 256

// scanHit is one row a scan step selected. vals aliases the committed
// version's image (or the scanning transaction's own buffered one); it is
// read-only and stays valid after the table lock is released, because a
// committed image is never modified — vacuum only unlinks versions. A hit
// holds no pointer into the heap itself, which may move once mu is released.
type scanHit struct {
	id       RowID
	vals     []Value
	observed uint64 // beginTS of the committed version read; 0 for own writes
	own      bool
}

// scanStep examines the next chunk of a scan's source — cands when listed,
// else the heap from slot next — under one RLock and appends the rows that
// qualify to hits, in source order. A row qualifies when the image the
// transaction should see (its own buffered write unless that is a delete,
// else the version visible at ts) passes the equality filter (filterPos < 0:
// none), tested in place so that rows that fail cost no copy. It returns the
// extended hits, the position to resume at, and whether the source is spent.
//
// A filtered heap walk with no own writes on the table first consults the
// filter column's head hashes: it skips an empty slot, and a slot whose head
// is the version visible at ts but hashes unlike the filter, without reading
// the image. Every other slot takes the full path above.
func (t *table) scanStep(cands []RowID, listed bool, next int, ts uint64,
	writes map[RowID]*txWrite, filterPos int, filter Value, hits []scanHit) ([]scanHit, int, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	limit := len(t.rows)
	if listed {
		limit = len(cands)
	}
	var hashes []uint64
	var want uint64
	if !listed && filterPos >= 0 && len(writes) == 0 {
		hashes, want = t.colHash[filterPos], valueHash(&filter)
	}
	for end := min(next+scanChunk, limit); next < end; next++ {
		if hashes != nil && hashes[next] != want {
			if c := &t.rows[next]; !c.used || c.head.visibleAt(ts) {
				continue
			}
		}
		h := scanHit{id: RowID(next)}
		if listed {
			h.id = cands[next]
		}
		if w, ok := writes[h.id]; ok {
			if w.op == opDelete {
				continue
			}
			h.vals, h.own = w.vals, true
		} else if v := t.chain(h.id).visible(ts); v != nil {
			h.vals, h.observed = v.vals, v.beginTS
		} else {
			continue
		}
		if filterPos < 0 || sqlEqual(&h.vals[filterPos], &filter) {
			hits = append(hits, h)
		}
	}
	return hits, next, next >= limit
}

// sqlEqual is the SQL `a = b` of a pushed-down filter: never true for NULL.
// It runs once per slot of a full scan, hence the pointers and the shortcut
// for the common text-to-text case (Values are 72 bytes; Compare copies two).
func sqlEqual(a, b *Value) bool {
	if a.Kind == KindString && b.Kind == KindString {
		return a.S == b.S
	}
	return !a.IsNull() && !b.IsNull() && Equal(*a, *b)
}

// readVisibleVersion returns a copy of the version of id visible at ts and
// its begin timestamp (nil and 0 when nothing is visible) — the "observed
// version" history recording needs to build rw/wr edges.
func (t *table) readVisibleVersion(id RowID, ts uint64) ([]Value, uint64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	v := t.chain(id).visible(ts)
	if v == nil {
		return nil, 0
	}
	return slices.Clone(v.vals), v.beginTS
}

// latestCommitted returns a copy of the newest committed version of id, its
// begin timestamp, and whether that version is live (not deleted).
func (t *table) latestCommitted(id RowID) ([]Value, uint64, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	v := t.chain(id).latest()
	if v == nil {
		return nil, 0, false
	}
	return slices.Clone(v.vals), v.beginTS, v.endTS == 0
}
