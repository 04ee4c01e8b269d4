package storage

import (
	"slices"
	"sync/atomic"
)

// VacuumStats reports what one Vacuum pass reclaimed.
type VacuumStats struct {
	// VersionsPruned counts dead row versions removed.
	VersionsPruned int
	// RowsReclaimed counts row slots whose chains became empty.
	RowsReclaimed int
	// IndexEntriesPruned counts stale index bucket entries removed.
	IndexEntriesPruned int
	// Horizon is the timestamp below which versions were reclaimable.
	Horizon uint64
}

// Vacuum reclaims row versions no active transaction can see: versions
// superseded or deleted at or before the oldest active snapshot. Index
// buckets are rebuilt to reference only keys still carried by surviving
// versions (the scan path treats buckets as supersets, so this is purely a
// space/speed optimization, never a correctness requirement).
//
// Vacuum quiesces the commit pipeline (exclusive gate), so it serializes with
// writers the way a stop-the-world VACUUM FULL would; it is intended for
// quiescent or low-traffic moments in long-running processes.
func (db *Database) Vacuum() VacuumStats {
	db.activeMu.Lock()
	horizon := db.minActiveStartLocked()
	db.activeMu.Unlock()

	db.pipe.gate.Lock()
	defer db.pipe.gate.Unlock()

	stats := VacuumStats{Horizon: horizon}
	dead := func(v *version) bool { return v.endTS != 0 && v.endTS <= horizon }
	db.catalogMu.RLock()
	tables := make([]*table, 0, len(db.tables))
	for _, t := range db.tables {
		tables = append(tables, t)
	}
	db.catalogMu.RUnlock()

	for _, t := range tables {
		t.mu.Lock()
		for id := range t.rows {
			c := &t.rows[id]
			if !c.used {
				continue
			}
			if dead(&c.head) {
				// Every older version ended before the head began: all dead.
				stats.VersionsPruned += c.count()
				stats.RowsReclaimed++
				*c = versionChain{}
				continue
			}
			if kept := slices.DeleteFunc(c.older, dead); len(kept) < len(c.older) {
				stats.VersionsPruned += len(c.older) - len(kept)
				c.older = append([]*version(nil), kept...)
			}
		}
		// Rebuild indexes from the surviving versions.
		for pos, ix := range t.indexes {
			if ix == nil {
				continue
			}
			fresh := newIndex(ix.spec)
			for id := range t.rows {
				t.rows[id].eachVals(func(vals []Value) { fresh.add(vals[pos].Key(), RowID(id)) })
			}
			stats.IndexEntriesPruned += ix.entries() - fresh.entries()
			t.indexes[pos] = fresh
		}
		t.mu.Unlock()
	}

	// Committed-transaction summaries older than the horizon can never
	// conflict with a future transaction either.
	db.activeMu.Lock()
	kept := db.committed[:0]
	for _, c := range db.committed {
		if c.commitTS > horizon {
			kept = append(kept, c)
		}
	}
	db.committed = append([]*txSummary(nil), kept...)
	db.activeMu.Unlock()
	mVacuumRuns.Inc()
	mVacuumVersions.Add(uint64(stats.VersionsPruned))
	mVacuumRows.Add(uint64(stats.RowsReclaimed))
	return stats
}

// VersionCount reports the total number of stored row versions, for tests
// and monitoring.
func (db *Database) VersionCount() int {
	db.catalogMu.RLock()
	defer db.catalogMu.RUnlock()
	total := 0
	for _, t := range db.tables {
		t.mu.RLock()
		for id := range t.rows {
			total += t.rows[id].count()
		}
		t.mu.RUnlock()
	}
	return total
}

// Clock returns the current commit timestamp (for tests and monitoring).
func (db *Database) Clock() uint64 { return atomic.LoadUint64(&db.clock) }
