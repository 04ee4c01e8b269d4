package storage

import (
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
	db.catalogMu.RLock()
	tables := make([]*table, 0, len(db.tables))
	for _, t := range db.tables {
		tables = append(tables, t)
	}
	db.catalogMu.RUnlock()

	for _, t := range tables {
		t.mu.Lock()
		for id, chain := range t.rows {
			if chain == nil {
				continue
			}
			kept := chain.versions[:0]
			for _, v := range chain.versions {
				dead := v.endTS != 0 && v.endTS <= horizon
				if dead {
					stats.VersionsPruned++
					continue
				}
				kept = append(kept, v)
			}
			chain.versions = append([]*version(nil), kept...)
			if len(chain.versions) == 0 {
				t.rows[id] = nil
				stats.RowsReclaimed++
			}
		}
		// Rebuild indexes from the surviving versions.
		for pos, ix := range t.indexes {
			if ix == nil {
				continue
			}
			fresh := newIndex(ix.spec)
			entries := 0
			for id, chain := range t.rows {
				if chain == nil {
					continue
				}
				for _, v := range chain.versions {
					fresh.add(v.vals[pos].Key(), RowID(id))
				}
			}
			for _, bucket := range fresh.buckets {
				entries += len(bucket)
			}
			old := 0
			for _, bucket := range ix.buckets {
				old += len(bucket)
			}
			stats.IndexEntriesPruned += old - entries
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
		for _, chain := range t.rows {
			if chain != nil {
				total += len(chain.versions)
			}
		}
		t.mu.RUnlock()
	}
	return total
}

// Clock returns the current commit timestamp (for tests and monitoring).
func (db *Database) Clock() uint64 { return atomic.LoadUint64(&db.clock) }
