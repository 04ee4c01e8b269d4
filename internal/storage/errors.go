package storage

import "errors"

// Sentinel errors returned by the engine. Callers match them with errors.Is.
var (
	// ErrInvalidSchema reports a malformed table definition.
	ErrInvalidSchema = errors.New("storage: invalid schema")
	// ErrTableExists reports CreateTable on an existing name.
	ErrTableExists = errors.New("storage: table already exists")
	// ErrNoSuchTable reports access to an unknown table.
	ErrNoSuchTable = errors.New("storage: no such table")
	// ErrNoSuchColumn reports access to an unknown column.
	ErrNoSuchColumn = errors.New("storage: no such column")
	// ErrTypeMismatch reports a value of the wrong kind for a column.
	ErrTypeMismatch = errors.New("storage: type mismatch")
	// ErrNotNull reports a NULL write into a NOT NULL column.
	ErrNotNull = errors.New("storage: null value in NOT NULL column")
	// ErrUniqueViolation reports an in-database unique constraint violation,
	// detected at commit. This is the error the paper's recommended fix
	// (a unique index) surfaces instead of admitting duplicate rows.
	ErrUniqueViolation = errors.New("storage: unique constraint violation")
	// ErrForeignKeyViolation reports an in-database referential integrity
	// violation detected at commit (orphaned child or missing parent).
	ErrForeignKeyViolation = errors.New("storage: foreign key constraint violation")
	// ErrSerialization reports that a transaction could not be committed at
	// its isolation level (first-committer-wins conflict, or a detected
	// antidependency cycle under Serializable). The client should retry.
	ErrSerialization = errors.New("storage: serialization failure, retry transaction")
	// ErrLockTimeout reports that a row or predicate lock could not be
	// acquired within the configured deadline; used for deadlock resolution.
	ErrLockTimeout = errors.New("storage: lock wait timeout (possible deadlock)")
	// ErrTxDone reports use of a finished (committed or rolled back)
	// transaction.
	ErrTxDone = errors.New("storage: transaction has already finished")
	// ErrNoSuchRow reports an update or delete of a missing row id.
	ErrNoSuchRow = errors.New("storage: no such row")
	// ErrStmtDeadline reports that a statement exceeded its deadline (set
	// from a caller's context and propagated down to lock waits). Distinct
	// from ErrLockTimeout: that is the engine's deadlock verdict, this is the
	// caller's budget running out.
	ErrStmtDeadline = errors.New("storage: statement deadline exceeded")
	// ErrReadOnly reports a write inside a read-only transaction.
	ErrReadOnly = errors.New("storage: read-only transaction")
	// ErrClosed reports a commit or DDL statement that needed the write-ahead
	// log after Database.Close closed it.
	ErrClosed = errors.New("storage: database closed")
)
