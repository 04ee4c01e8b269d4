// Package wire implements a small length-prefixed TCP protocol exposing the
// database as a standalone server, so application workers and the database
// live in separate processes — the deployment shape of the paper's
// experiments (Rails workers on one machine, PostgreSQL on another).
//
// Framing: a 4-byte big-endian length followed by a binary body. The body's
// first byte is the message type; the rest uses unsigned varints for lengths
// and counts, zig-zag varints for signed integers, and type-tagged values.
// Strings, values and rows use the storage package's value codec — the bytes
// the WAL and the snapshot hold — read back through its bounds-checked
// storage.Decoder, so an unknown value kind or a count beyond the body makes a
// frame undecodable at either end. Arguments and result rows stay
// storage.Values from the executor to the socket. Each connection is a
// session with its own transaction state (and its own prepared-statement
// handle table); requests on one connection are processed in order, one
// response per request.
//
// Message types:
//
//	MsgExec      sql, args           — parse (via the server's plan cache) and run
//	MsgPrepare   sql                 — plan once; response carries a statement handle
//	MsgExecute   handle, args        — run a previously prepared statement
//	MsgCloseStmt handle              — release a statement handle
package wire

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"feralcc/internal/obs"
	"feralcc/internal/storage"
)

// MaxFrame bounds a single protocol frame (16 MiB).
const MaxFrame = 16 << 20

// MsgType discriminates request frames.
type MsgType uint8

const (
	// MsgExec executes one SQL string with bound arguments.
	MsgExec MsgType = iota + 1
	// MsgPrepare plans a statement server-side and returns a handle.
	MsgPrepare
	// MsgExecute runs a prepared statement by handle.
	MsgExecute
	// MsgCloseStmt releases a prepared-statement handle.
	MsgCloseStmt
)

// ErrorCode identifies the error category, so clients can reconstruct
// errors.Is-compatible sentinel errors across the wire.
type ErrorCode uint8

const (
	CodeOK ErrorCode = iota
	CodeGeneric
	CodeUniqueViolation
	CodeForeignKeyViolation
	CodeSerialization
	CodeLockTimeout
	CodeNoSuchTable
	CodeNoSuchColumn
	CodeTxState
	// CodeTimeout reports a statement aborted because its deadline (carried
	// on the request as a relative budget) expired server-side.
	CodeTimeout
	// CodeOverloaded reports work shed by an overloaded server — a bounded
	// engine queue (lock wait, commit submission) or the wire tier's own
	// admission controller refused to queue it. The response carries a
	// retry-after hint; the reconstructed error is retryable-after-backoff.
	CodeOverloaded
)

// codeOf classifies an error for transport.
func codeOf(err error) ErrorCode {
	switch {
	case err == nil:
		return CodeOK
	case errors.Is(err, storage.ErrUniqueViolation):
		return CodeUniqueViolation
	case errors.Is(err, storage.ErrForeignKeyViolation):
		return CodeForeignKeyViolation
	case errors.Is(err, storage.ErrSerialization):
		return CodeSerialization
	case errors.Is(err, storage.ErrLockTimeout):
		return CodeLockTimeout
	case errors.Is(err, storage.ErrNoSuchTable):
		return CodeNoSuchTable
	case errors.Is(err, storage.ErrNoSuchColumn):
		return CodeNoSuchColumn
	case errors.Is(err, storage.ErrTxDone):
		return CodeTxState
	case errors.Is(err, storage.ErrStmtDeadline):
		return CodeTimeout
	case errors.Is(err, storage.ErrOverloaded):
		return CodeOverloaded
	default:
		return CodeGeneric
	}
}

// errorFor reconstructs a sentinel-wrapped error from a transported code.
// retryAfter is the response's backoff hint; only CodeOverloaded carries one.
func errorFor(code ErrorCode, msg string, retryAfter time.Duration) error {
	switch code {
	case CodeOK:
		return nil
	case CodeUniqueViolation:
		return fmt.Errorf("%w: %s", storage.ErrUniqueViolation, msg)
	case CodeForeignKeyViolation:
		return fmt.Errorf("%w: %s", storage.ErrForeignKeyViolation, msg)
	case CodeSerialization:
		return fmt.Errorf("%w: %s", storage.ErrSerialization, msg)
	case CodeLockTimeout:
		return fmt.Errorf("%w: %s", storage.ErrLockTimeout, msg)
	case CodeNoSuchTable:
		return fmt.Errorf("%w: %s", storage.ErrNoSuchTable, msg)
	case CodeNoSuchColumn:
		return fmt.Errorf("%w: %s", storage.ErrNoSuchColumn, msg)
	case CodeTxState:
		return fmt.Errorf("%w: %s", storage.ErrTxDone, msg)
	case CodeTimeout:
		return fmt.Errorf("%w: %s", storage.ErrStmtDeadline, msg)
	case CodeOverloaded:
		// The transported message is the server-side Error() string, which
		// already carries the sentinel prefix; strip it so the reconstructed
		// error does not stutter.
		msg = strings.TrimPrefix(msg, storage.ErrOverloaded.Error()+": ")
		return &storage.OverloadError{Reason: msg, RetryAfter: retryAfter}
	default:
		return errors.New(msg)
	}
}

// request is one client->server message.
type request struct {
	Type MsgType
	// DeadlineNanos is the statement's remaining time budget in nanoseconds
	// (0 = unbounded), for MsgExec and MsgExecute. A relative budget rather
	// than an absolute wall-clock instant, so client and server clocks need
	// not agree; the server reconstitutes its own deadline on receipt.
	DeadlineNanos int64
	SQL           string          // MsgExec, MsgPrepare
	Handle        uint64          // MsgExecute, MsgCloseStmt
	Args          []storage.Value // MsgExec, MsgExecute
	// TraceID is the client-minted statement trace ID (MsgExec, MsgExecute;
	// 0 = let the server mint one). The server threads it through the
	// executor so spans recorded deep in storage carry the client's ID.
	TraceID uint64
}

// response is one server->client message.
type response struct {
	Code  ErrorCode
	Error string // set when Code != CodeOK
	// RetryAfterNanos is the server's backoff hint for retryable-after-backoff
	// failures (Code != CodeOK only; 0 = no hint). Clients floor their own
	// jittered backoff at this value rather than obeying it exactly.
	RetryAfterNanos int64
	Handle          uint64 // set for MsgPrepare responses
	NumParams       int    // set for MsgPrepare responses
	Columns         []string
	Rows            [][]storage.Value
	RowsAffected    int64
	LastInsertID    int64
	// Trace echo (CodeOK only): the statement's trace ID, plan-cache
	// verdict, and the server-side span timings, so the client's Result
	// carries the same trace the server logged.
	TraceID  uint64
	CacheHit bool
	Spans    [obs.NumSpans]int64
}
