package wire

import (
	"encoding/binary"
	"fmt"
	"io"

	"feralcc/internal/storage"
)

// --- message codec ------------------------------------------------------------

func encodeRequest(b []byte, req *request) []byte {
	b = append(b, byte(req.Type))
	switch req.Type {
	case MsgExec:
		b = binary.AppendUvarint(b, uint64(req.DeadlineNanos))
		b = storage.AppendString(b, req.SQL)
		b = storage.AppendRow(b, req.Args)
		b = binary.AppendUvarint(b, req.TraceID)
	case MsgPrepare:
		b = storage.AppendString(b, req.SQL)
	case MsgExecute:
		b = binary.AppendUvarint(b, uint64(req.DeadlineNanos))
		b = binary.AppendUvarint(b, req.Handle)
		b = storage.AppendRow(b, req.Args)
		b = binary.AppendUvarint(b, req.TraceID)
	case MsgCloseStmt:
		b = binary.AppendUvarint(b, req.Handle)
	}
	return b
}

func decodeRequest(body []byte) (*request, error) {
	d := storage.NewDecoder(body)
	req := &request{Type: MsgType(d.Byte())}
	switch req.Type {
	case MsgExec:
		req.DeadlineNanos = int64(d.Uvarint())
		req.SQL = d.Str()
		req.Args = d.Row()
		req.TraceID = d.Uvarint()
	case MsgPrepare:
		req.SQL = d.Str()
	case MsgExecute:
		req.DeadlineNanos = int64(d.Uvarint())
		req.Handle = d.Uvarint()
		req.Args = d.Row()
		req.TraceID = d.Uvarint()
	case MsgCloseStmt:
		req.Handle = d.Uvarint()
	default:
		return nil, fmt.Errorf("wire: unknown message type %d", req.Type)
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return req, nil
}

func encodeResponse(b []byte, resp *response) []byte {
	b = append(b, byte(resp.Code))
	if resp.Code != CodeOK {
		b = storage.AppendString(b, resp.Error)
		return binary.AppendUvarint(b, uint64(resp.RetryAfterNanos))
	}
	b = binary.AppendUvarint(b, resp.Handle)
	b = binary.AppendUvarint(b, uint64(resp.NumParams))
	b = binary.AppendUvarint(b, uint64(len(resp.Columns)))
	for _, c := range resp.Columns {
		b = storage.AppendString(b, c)
	}
	b = binary.AppendUvarint(b, uint64(len(resp.Rows)))
	for _, row := range resp.Rows {
		b = storage.AppendRow(b, row)
	}
	b = binary.AppendVarint(b, resp.RowsAffected)
	b = binary.AppendVarint(b, resp.LastInsertID)
	b = binary.AppendUvarint(b, resp.TraceID)
	b = storage.AppendBool(b, resp.CacheHit)
	// Spans as (id, nanos) pairs, zeroes omitted: most statements touch only
	// two or three of the span slots.
	nz := 0
	for _, v := range resp.Spans {
		if v != 0 {
			nz++
		}
	}
	b = binary.AppendUvarint(b, uint64(nz))
	for i, v := range resp.Spans {
		if v != 0 {
			b = append(b, byte(i))
			b = binary.AppendVarint(b, v)
		}
	}
	return b
}

func decodeResponse(body []byte) (*response, error) {
	d := storage.NewDecoder(body)
	resp := &response{Code: ErrorCode(d.Byte())}
	if resp.Code != CodeOK {
		resp.Error = d.Str()
		resp.RetryAfterNanos = int64(d.Uvarint())
	} else {
		resp.Handle = d.Uvarint()
		resp.NumParams = int(d.Uvarint())
		if n := d.Count(); n > 0 {
			resp.Columns = make([]string, n)
			for i := range resp.Columns {
				resp.Columns[i] = d.Str()
			}
		}
		if n := d.Count(); n > 0 {
			resp.Rows = make([][]storage.Value, n)
			for i := range resp.Rows {
				resp.Rows[i] = d.Row()
			}
		}
		resp.RowsAffected = d.Varint()
		resp.LastInsertID = d.Varint()
		resp.TraceID = d.Uvarint()
		resp.CacheHit = d.Bool()
		for n := d.Count(); n > 0; n-- {
			id, v := d.Byte(), d.Varint()
			if int(id) < len(resp.Spans) {
				resp.Spans[id] = v
			}
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return resp, nil
}

// --- framing ------------------------------------------------------------------

// writeFrame writes one length-prefixed frame. The size is validated before
// any byte reaches the writer: an oversized body returns an error with
// nothing written, leaving the stream in sync for subsequent frames.
func writeFrame(w io.Writer, body []byte) error {
	if len(body) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(body))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readFrame reads one length-prefixed frame body.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}
