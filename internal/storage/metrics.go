package storage

import (
	"errors"

	"feralcc/internal/obs"
)

// Storage-tier instruments, registered once into the default registry. The
// commit critical section, lock queue, and WAL paths touch only these
// pre-resolved pointers: no name lookups and no allocation on the hot path.
var (
	mCommits = obs.NewCounter(obs.Default(),
		"feraldb_storage_commits_total", "Transactions committed (including read-only)")
	mCommitSeconds = obs.NewHistogram(obs.Default(),
		"feraldb_storage_commit_seconds", "Tx.Commit latency: validation, WAL append, install")

	mAbortsSerialization = obs.NewCounter(obs.Default(),
		`feraldb_storage_aborts_total{reason="serialization"}`, "Transactions aborted, by reason")
	mAbortsUnique = obs.NewCounter(obs.Default(),
		`feraldb_storage_aborts_total{reason="unique"}`, "Transactions aborted, by reason")
	mAbortsFK = obs.NewCounter(obs.Default(),
		`feraldb_storage_aborts_total{reason="foreign_key"}`, "Transactions aborted, by reason")
	mAbortsDeadlock = obs.NewCounter(obs.Default(),
		`feraldb_storage_aborts_total{reason="deadlock"}`, "Transactions aborted, by reason")
	mAbortsDeadline = obs.NewCounter(obs.Default(),
		`feraldb_storage_aborts_total{reason="deadline"}`, "Transactions aborted, by reason")
	mAbortsWAL = obs.NewCounter(obs.Default(),
		`feraldb_storage_aborts_total{reason="wal"}`, "Transactions aborted, by reason")
	mAbortsRollback = obs.NewCounter(obs.Default(),
		`feraldb_storage_aborts_total{reason="rollback"}`, "Transactions aborted, by reason")
	mAbortsOther = obs.NewCounter(obs.Default(),
		`feraldb_storage_aborts_total{reason="other"}`, "Transactions aborted, by reason")
	mAbortsOverload = obs.NewCounter(obs.Default(),
		`feraldb_storage_aborts_total{reason="overload"}`, "Transactions aborted, by reason")

	mLockSheds = obs.NewCounter(obs.Default(),
		`feraldb_storage_sheds_total{queue="lock"}`, "Acquisitions shed at a bounded queue, by queue")
	mCommitSheds = obs.NewCounter(obs.Default(),
		`feraldb_storage_sheds_total{queue="commit"}`, "Acquisitions shed at a bounded queue, by queue")

	mLockWaits = obs.NewCounter(obs.Default(),
		"feraldb_storage_lock_waits_total", "Lock acquisitions that queued behind a holder")
	mLockWaitSeconds = obs.NewHistogram(obs.Default(),
		"feraldb_storage_lock_wait_seconds", "Time spent queued for row/predicate/table locks")
	mLockTimeouts = obs.NewCounter(obs.Default(),
		"feraldb_storage_lock_timeouts_total", "Lock waits abandoned at the timeout or statement deadline")

	mWALAppends = obs.NewCounter(obs.Default(),
		"feraldb_storage_wal_appends_total", "Write-ahead log records appended")
	mWALAppendSeconds = obs.NewHistogram(obs.Default(),
		"feraldb_storage_wal_append_seconds", "WAL append latency (includes the fsync under sync=always)")
	mWALFsyncs = obs.NewCounter(obs.Default(),
		"feraldb_storage_wal_fsyncs_total", "WAL fsync calls")
	mWALFsyncSeconds = obs.NewHistogram(obs.Default(),
		"feraldb_storage_wal_fsync_seconds", "WAL fsync latency")

	mGroupCommitFrames = obs.NewCounter(obs.Default(),
		"feraldb_storage_group_commit_frames_total", "WAL frames written by group-commit batch leaders (single- or multi-transaction)")
	mGroupCommitTxns = obs.NewCounter(obs.Default(),
		"feraldb_storage_group_commit_txns_total", "Transactions made durable through group commit")
	mGroupCommitBatchTxns = obs.NewHistogram(obs.Default(),
		"feraldb_storage_group_commit_batch_txns", "Transactions per group-commit batch (unitless count, power-of-two buckets)")
	mCommitQueueDepth = obs.NewGauge(obs.Default(),
		"feraldb_storage_commit_queue_depth", "Commit records in the group-commit writer queue not yet taken into a batch")
	mFsyncsPerCommitMilli = obs.NewGauge(obs.Default(),
		"feraldb_storage_wal_fsyncs_per_commit_milli", "Cumulative WAL fsyncs per group-committed transaction, in thousandths (1000 = one fsync per commit)")

	mCheckpoints = obs.NewCounter(obs.Default(),
		"feraldb_storage_checkpoints_total", "Snapshot checkpoints completed")
	mCheckpointSeconds = obs.NewHistogram(obs.Default(),
		"feraldb_storage_checkpoint_seconds", "Snapshot checkpoint duration")
	mRecoverySeconds = obs.NewHistogram(obs.Default(),
		"feraldb_storage_recovery_seconds", "OpenDir crash-recovery duration (snapshot load + log replay)")
	mRecoveryRecords = obs.NewCounter(obs.Default(),
		"feraldb_storage_recovery_records_total", "WAL records replayed during recovery")

	mVacuumRuns = obs.NewCounter(obs.Default(),
		"feraldb_storage_vacuum_runs_total", "Vacuum passes completed")
	mVacuumVersions = obs.NewCounter(obs.Default(),
		"feraldb_storage_vacuum_versions_pruned_total", "Dead versions pruned by vacuum")
	mVacuumRows = obs.NewCounter(obs.Default(),
		"feraldb_storage_vacuum_rows_reclaimed_total", "Fully dead rows reclaimed by vacuum")
)

// abortCounter classifies a commit failure at or before validation into its
// labeled abort counter (a WAL-stage failure counts under reason="wal"
// whatever the error; see Tx.abortCommit). Classification is by error
// sentinel so injected faults count as the failure they masquerade as.
func abortCounter(err error) *obs.Counter {
	switch {
	case errors.Is(err, ErrOverloaded):
		return mAbortsOverload
	case errors.Is(err, ErrSerialization):
		return mAbortsSerialization
	case errors.Is(err, ErrUniqueViolation):
		return mAbortsUnique
	case errors.Is(err, ErrForeignKeyViolation):
		return mAbortsFK
	case errors.Is(err, ErrLockTimeout):
		return mAbortsDeadlock
	case errors.Is(err, ErrStmtDeadline):
		return mAbortsDeadline
	default:
		return mAbortsOther
	}
}
