package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"feralcc/internal/obs"
	"feralcc/internal/storage"
)

// TestErrorCodesBinaryRoundTrip pushes every non-OK ErrorCode through the
// full binary path — encodeResponse, framing, decodeResponse, errorFor — and
// asserts the reconstructed error still satisfies errors.Is for its sentinel.
func TestErrorCodesBinaryRoundTrip(t *testing.T) {
	sentinels := map[ErrorCode]error{
		CodeUniqueViolation:     storage.ErrUniqueViolation,
		CodeForeignKeyViolation: storage.ErrForeignKeyViolation,
		CodeSerialization:       storage.ErrSerialization,
		CodeLockTimeout:         storage.ErrLockTimeout,
		CodeNoSuchTable:         storage.ErrNoSuchTable,
		CodeNoSuchColumn:        storage.ErrNoSuchColumn,
		CodeTxState:             storage.ErrTxDone,
		CodeGeneric:             nil, // no sentinel; message must survive
	}
	for code, sentinel := range sentinels {
		srcErr := errors.New("handler failure détail")
		if sentinel != nil {
			srcErr = fmt.Errorf("executing stmt: %w", sentinel)
		}
		if got := codeOf(srcErr); got != code {
			t.Errorf("codeOf(%v) = %d, want %d", srcErr, got, code)
			continue
		}
		var buf bytes.Buffer
		body := encodeResponse(nil, &response{Code: code, Error: srcErr.Error()})
		if err := writeFrame(&buf, body); err != nil {
			t.Fatal(err)
		}
		frame, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := decodeResponse(frame)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt := errorFor(resp.Code, resp.Error, time.Duration(resp.RetryAfterNanos))
		if sentinel != nil && !errors.Is(rebuilt, sentinel) {
			t.Errorf("code %d: errors.Is lost across the wire: %v", code, rebuilt)
		}
		if sentinel == nil && rebuilt.Error() != srcErr.Error() {
			t.Errorf("generic message mangled: %q", rebuilt.Error())
		}
	}
	// codeOf must stay total: unmapped errors fall back to generic.
	if codeOf(storage.ErrReadOnly) != CodeGeneric {
		t.Error("unmapped sentinel not classified as generic")
	}
	if errorFor(CodeOK, "", 0) != nil {
		t.Error("CodeOK should reconstruct to nil")
	}
}

// TestWireTimeZonesNormalize pins the timestamp contract: instants survive,
// wall-clock zone does not (everything decodes as UTC).
func TestWireTimeZonesNormalize(t *testing.T) {
	zone := time.FixedZone("UTC+5:30", 5*3600+1800)
	local := time.Unix(1736000000, 987654321).In(zone)
	resp, err := decodeResponse(encodeResponse(nil, &response{Rows: [][]storage.Value{{storage.Time(local)}}}))
	if err != nil {
		t.Fatal(err)
	}
	got := resp.Rows[0][0]
	if !got.T.Equal(local) {
		t.Fatalf("instant lost: %v != %v", got.T, local)
	}
	if got.T.Location() != time.UTC {
		t.Fatalf("decoded timestamp not UTC: %v", got.T.Location())
	}
}

// truncationRequest and truncationResponses are the bodies the truncation
// tests cut at every length; they also seed FuzzDecode's corpus.
var (
	truncationRequest = &request{Type: MsgExec, SQL: "SELECT x FROM t WHERE id = ?",
		DeadlineNanos: int64(250 * time.Millisecond),
		Args:          []storage.Value{storage.Int(-12345), storage.Str("ü"), storage.Null()}}
	truncationResponses = []*response{
		{Code: CodeOK, Handle: 3, NumParams: 2,
			Columns: []string{"id", "key"},
			Rows: [][]storage.Value{
				{storage.Int(1), storage.Str("a")},
				{storage.Int(2), storage.Null()},
			},
			RowsAffected: -1, LastInsertID: 1 << 40},
		{Code: CodeTimeout, Error: "statement deadline exceeded détail"},
	}
)

// TestDecoderRejectsTruncation fuzzes truncation: every proper prefix of a
// valid request must decode to an error, never to a bogus request or a panic.
func TestDecoderRejectsTruncation(t *testing.T) {
	full := encodeRequest(nil, truncationRequest)
	for n := 0; n < len(full); n++ {
		if _, err := decodeRequest(full[:n]); err == nil {
			t.Fatalf("truncated body of %d/%d bytes decoded cleanly", n, len(full))
		}
	}
	if _, err := decodeRequest(full); err != nil {
		t.Fatalf("full body failed: %v", err)
	}
}

// quickValue builds a value of the kind kind%6 selects: floats include NaNs
// with arbitrary payloads (kind >= 128), and times carry a non-UTC zone when n
// is odd.
func quickValue(kind uint8, n int64, f float64, s string) storage.Value {
	switch storage.Kind(kind % 6) {
	case storage.KindInt:
		return storage.Int(n)
	case storage.KindFloat:
		if kind >= 128 {
			f = math.Float64frombits(0x7ff8000000000000 | uint64(n)&0x0007ffffffffffff)
		}
		return storage.Float(f)
	case storage.KindString:
		return storage.Str(s)
	case storage.KindBool:
		return storage.Bool(n%2 == 0)
	case storage.KindTime:
		if n%2 != 0 {
			return storage.Time(time.Unix(0, n).In(time.FixedZone("UTC-3", -3*3600)))
		}
		return storage.Time(time.Unix(0, n))
	default:
		return storage.Null()
	}
}

// sameValue reports whether out is what the wire must deliver for in: floats
// equal by bit pattern, times the same instant in UTC, the rest field for
// field.
func sameValue(in, out storage.Value) bool {
	switch in.Kind {
	case storage.KindFloat:
		return out.Kind == storage.KindFloat && math.Float64bits(in.F) == math.Float64bits(out.F)
	case storage.KindTime:
		return out.Kind == storage.KindTime && out.T.Equal(in.T) && out.T.Location() == time.UTC
	default:
		return in == out
	}
}

// TestWireValueQuick property-tests one value on the wire: any value, as the
// only argument of a request and as the only cell of a result, decodes to
// itself, and the fields encoded after it still decode — so it consumed
// exactly its own bytes.
func TestWireValueQuick(t *testing.T) {
	prop := func(kind uint8, n int64, f float64, s string, trace uint64) bool {
		v := quickValue(kind, n, f, s)
		req, err := decodeRequest(encodeRequest(nil, &request{Type: MsgExec, SQL: s, Args: []storage.Value{v}, TraceID: trace}))
		if err != nil || len(req.Args) != 1 || !sameValue(v, req.Args[0]) || req.TraceID != trace {
			return false
		}
		resp, err := decodeResponse(encodeResponse(nil, &response{Rows: [][]storage.Value{{v}}, RowsAffected: n, TraceID: trace}))
		return err == nil && len(resp.Rows) == 1 && len(resp.Rows[0]) == 1 &&
			sameValue(v, resp.Rows[0][0]) && resp.RowsAffected == n && resp.TraceID == trace
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestWireValueSliceQuick covers the count-prefixed value sequence used for
// argument lists and result rows: any list of values, as the arguments of a
// prepared-statement execution and as every row of a result, round-trips.
func TestWireValueSliceQuick(t *testing.T) {
	prop := func(kinds []uint8, n int64, s string, rows uint8) bool {
		vals := make([]storage.Value, len(kinds))
		for idx, k := range kinds {
			vals[idx] = quickValue(k, n+int64(idx), float64(idx)/3, s)
		}
		same := func(out []storage.Value) bool {
			if len(out) != len(vals) {
				return false
			}
			for idx := range vals {
				if !sameValue(vals[idx], out[idx]) {
					return false
				}
			}
			return true
		}
		req, err := decodeRequest(encodeRequest(nil, &request{Type: MsgExecute, Handle: uint64(rows), Args: vals, TraceID: 9}))
		if err != nil || !same(req.Args) || req.TraceID != 9 {
			return false
		}
		in := &response{Rows: make([][]storage.Value, rows%8), LastInsertID: n}
		for i := range in.Rows {
			in.Rows[i] = vals
		}
		resp, err := decodeResponse(encodeResponse(nil, in))
		if err != nil || len(resp.Rows) != len(in.Rows) || resp.LastInsertID != n {
			return false
		}
		for _, row := range resp.Rows {
			if !same(row) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRequestCodecQuick property-tests the request codec across both
// deadline-carrying message types: any non-negative budget, handle, SQL text,
// and argument list must round-trip exactly.
func TestRequestCodecQuick(t *testing.T) {
	prop := func(execute bool, deadline int64, handle uint64, sql string, kinds []uint8, n int64) bool {
		if deadline < 0 {
			deadline = -deadline // budgets are non-negative by contract
		}
		req := &request{Type: MsgExec, SQL: sql, DeadlineNanos: deadline}
		if execute {
			req = &request{Type: MsgExecute, Handle: handle, DeadlineNanos: deadline}
		}
		for idx, k := range kinds {
			req.Args = append(req.Args, quickValue(k, n+int64(idx), float64(n)/3, sql))
		}
		got, err := decodeRequest(encodeRequest(nil, req))
		if err != nil {
			return false
		}
		if got.Type != req.Type || got.SQL != req.SQL || got.Handle != req.Handle ||
			got.DeadlineNanos != req.DeadlineNanos || len(got.Args) != len(req.Args) {
			return false
		}
		for idx := range req.Args {
			if !sameValue(req.Args[idx], got.Args[idx]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestRequestDeadlineZeroMeansUnbounded pins the wire meaning of an absent
// deadline: a zero budget must encode, survive, and decode as exactly zero
// (the server treats it as "no statement deadline").
func TestRequestDeadlineZeroMeansUnbounded(t *testing.T) {
	for _, typ := range []MsgType{MsgExec, MsgExecute} {
		req := &request{Type: typ, SQL: "SELECT 1", Handle: 7}
		got, err := decodeRequest(encodeRequest(nil, req))
		if err != nil {
			t.Fatal(err)
		}
		if got.DeadlineNanos != 0 {
			t.Fatalf("%v: zero deadline decoded as %d", typ, got.DeadlineNanos)
		}
	}
}

// TestResponseRejectsTruncation is the response-side truncation corpus: every
// proper prefix of both an OK response (with columns and rows) and an error
// response must decode to an error, never a short-but-plausible response.
func TestResponseRejectsTruncation(t *testing.T) {
	for _, resp := range truncationResponses {
		full := encodeResponse(nil, resp)
		for n := 0; n < len(full); n++ {
			if _, err := decodeResponse(full[:n]); err == nil {
				t.Fatalf("code %d: truncated body of %d/%d bytes decoded cleanly",
					resp.Code, n, len(full))
			}
		}
		if _, err := decodeResponse(full); err != nil {
			t.Fatalf("code %d: full body failed: %v", resp.Code, err)
		}
	}
}

// patchKind copies body and overwrites with kind the kind byte of its last
// value v, which tail bytes follow: a request's one-byte trace ID, or the five
// one-byte fields after the rows of an OK response with zero counters.
func patchKind(body []byte, v storage.Value, tail int, kind byte) []byte {
	body = append([]byte(nil), body...)
	body[len(body)-tail-len(storage.AppendValue(nil, v))] = kind
	return body
}

// TestRequestRejectsUnknownValueKind: an argument whose kind byte names no
// value kind is a decode error, whether or not a payload follows it — never a
// NULL argument, never a misparse of the bytes after it — and a server that
// receives one drops the connection rather than executing the statement.
func TestRequestRejectsUnknownValueKind(t *testing.T) {
	for _, arg := range []storage.Value{storage.Null(), storage.Int(300)} {
		body := encodeRequest(nil, &request{Type: MsgExecute, Handle: 1, Args: []storage.Value{arg}})
		for _, kind := range []byte{7, 6, 0xff} {
			if req, err := decodeRequest(patchKind(body, arg, 1, kind)); err == nil {
				t.Fatalf("%v argument patched to kind %d decoded cleanly: %+v", arg, kind, req)
			}
		}
	}

	store := storage.Open(storage.Options{})
	conn, err := net.Dial("tcp", startServer(t, store))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	arg := storage.Null()
	body := encodeRequest(nil, &request{Type: MsgExec, SQL: "SHOW TABLES", Args: []storage.Value{arg}})
	if err := writeFrame(conn, patchKind(body, arg, 1, 7)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if resp, err := readFrame(bufio.NewReader(conn)); !errors.Is(err, io.EOF) {
		t.Fatalf("server answered an undecodable frame: %x, %v", resp, err)
	}
}

// TestResponseRejectsUnknownValueKind is the client-side half: a result row
// holding an unknown kind is a decode error (on which the client severs).
func TestResponseRejectsUnknownValueKind(t *testing.T) {
	for _, v := range []storage.Value{storage.Null(), storage.Str("abc")} {
		body := encodeResponse(nil, &response{Columns: []string{"v"}, Rows: [][]storage.Value{{v}}})
		if resp, err := decodeResponse(patchKind(body, v, 5, 7)); err == nil {
			t.Fatalf("%v cell patched to kind 7 decoded cleanly: %+v", v, resp)
		}
	}
}

// codecGoldenFile holds the encoded bodies of codecCorpus, captured before
// the wire moved onto the storage value codec; the bytes must never move.
const codecGoldenFile = "testdata/codec.golden"

// codecCorpus returns named request and response bodies covering every value
// kind, NULL and empty argument lists, multi-row results and error responses,
// plus one whole frame.
func codecCorpus() []string {
	zone := time.FixedZone("UTC-3", -3*3600)
	every := []storage.Value{
		storage.Null(), storage.Int(-12345), storage.Int(math.MaxInt64), storage.Int(math.MinInt64),
		storage.Float(3.25), storage.Float(math.Copysign(0, -1)), storage.Float(math.NaN()), storage.Float(math.Inf(1)),
		storage.Str(""), storage.Str("héllo\x00wörld"), storage.Bool(true), storage.Bool(false),
		storage.Time(time.Date(2015, 5, 31, 23, 59, 59, 999999999, zone)), storage.Time(time.Unix(-86400, 1)),
	}
	reqs := []struct {
		name string
		req  request
	}{
		{"exec-every-kind", request{Type: MsgExec, DeadlineNanos: int64(250 * time.Millisecond), SQL: "SELECT * FROM t WHERE a = ?", Args: every, TraceID: 0xdeadbeef}},
		{"exec-no-args", request{Type: MsgExec, SQL: "BEGIN"}},
		{"exec-empty-args", request{Type: MsgExec, SQL: "COMMIT", Args: []storage.Value{}}},
		{"exec-null-arg", request{Type: MsgExec, SQL: "SELECT ?", Args: []storage.Value{storage.Null()}}},
		{"prepare", request{Type: MsgPrepare, SQL: "INSERT INTO t (a, b) VALUES (?, ?)"}},
		{"execute-every-kind", request{Type: MsgExecute, DeadlineNanos: 1, Handle: 300, Args: every, TraceID: 1 << 63}},
		{"execute-no-args", request{Type: MsgExecute, Handle: 1}},
		{"close-stmt", request{Type: MsgCloseStmt, Handle: 1 << 40}},
	}
	var spans [obs.NumSpans]int64
	spans[0], spans[obs.NumSpans-1] = 1500, 1<<33
	resps := []struct {
		name string
		resp response
	}{
		{"ok-prepare", response{Handle: 300, NumParams: 2}},
		{"ok-rows", response{Columns: []string{"id", "v"},
			Rows:         [][]storage.Value{every, {storage.Int(1), storage.Str("a")}, {storage.Int(2), storage.Null()}},
			RowsAffected: 3, LastInsertID: 1 << 40, TraceID: 77, CacheHit: true, Spans: spans}},
		{"ok-empty", response{}},
		{"ok-negative", response{RowsAffected: -1, LastInsertID: -1}},
		{"err-overloaded", response{Code: CodeOverloaded, Error: "storage: overloaded: lock queue full", RetryAfterNanos: int64(5 * time.Millisecond)}},
		{"err-generic", response{Code: CodeGeneric, Error: "boom détail"}},
	}
	var lines []string
	for _, c := range reqs {
		lines = append(lines, "request "+c.name+" "+hex.EncodeToString(encodeRequest(nil, &c.req)))
	}
	for _, c := range resps {
		lines = append(lines, "response "+c.name+" "+hex.EncodeToString(encodeResponse(nil, &c.resp)))
	}
	var frame bytes.Buffer
	writeFrame(&frame, encodeRequest(nil, &reqs[0].req))
	return append(lines, "frame exec-every-kind "+hex.EncodeToString(frame.Bytes()))
}

// TestCodecGolden pins the encoded bytes of codecCorpus, and that each golden
// body decodes and re-encodes to itself.
func TestCodecGolden(t *testing.T) {
	raw, err := os.ReadFile(codecGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	got := codecCorpus()
	if len(got) != len(want) {
		t.Fatalf("%d corpus bodies, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("encoding moved:\n  want %s\n  got  %s", want[i], got[i])
		}
		f := strings.Fields(want[i])
		body, err := hex.DecodeString(f[2])
		if err != nil {
			t.Fatal(err)
		}
		var again []byte
		switch f[0] {
		case "request":
			req, err := decodeRequest(body)
			if err != nil {
				t.Fatalf("%s: %v", f[1], err)
			}
			again = encodeRequest(nil, req)
		case "response":
			resp, err := decodeResponse(body)
			if err != nil {
				t.Fatalf("%s: %v", f[1], err)
			}
			again = encodeResponse(nil, resp)
		default:
			again, err = readFrame(bytes.NewReader(body))
			if err != nil {
				t.Fatalf("%s: %v", f[1], err)
			}
			body = body[4:]
		}
		if !bytes.Equal(again, body) {
			t.Errorf("%s %s: decode then encode gives %x", f[0], f[1], again)
		}
	}
}

// FuzzDecode feeds arbitrary bodies to both message decoders. Neither may
// panic or size a slice from a count beyond the body's own length, and a body
// that decodes re-encodes to a stable form. Plain `go test` replays the
// checked-in corpus (testdata/fuzz/FuzzDecode: the truncation-test bodies and
// the unknown-kind cases); `go test -fuzz FuzzDecode` searches further.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		if req, err := decodeRequest(body); err == nil {
			if cap(req.Args) > len(body) {
				t.Fatalf("%d-byte body sized %d arguments", len(body), cap(req.Args))
			}
			enc := encodeRequest(nil, req)
			again, err := decodeRequest(enc)
			if err != nil || !bytes.Equal(encodeRequest(nil, again), enc) {
				t.Fatalf("request re-encoding unstable: %x, %v", enc, err)
			}
		}
		if resp, err := decodeResponse(body); err == nil {
			if cap(resp.Columns) > len(body) || cap(resp.Rows) > len(body) {
				t.Fatalf("%d-byte body sized %d columns, %d rows", len(body), cap(resp.Columns), cap(resp.Rows))
			}
			for _, row := range resp.Rows {
				if cap(row) > len(body) {
					t.Fatalf("%d-byte body sized a %d-value row", len(body), cap(row))
				}
			}
			enc := encodeResponse(nil, resp)
			again, err := decodeResponse(enc)
			if err != nil || !bytes.Equal(encodeResponse(nil, again), enc) {
				t.Fatalf("response re-encoding unstable: %x, %v", enc, err)
			}
		}
	})
}
