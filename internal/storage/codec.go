package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"time"
)

// The value codec is the one binary form of a Value, shared by WAL records,
// the snapshot and the wire protocol:
//
//	value  := kind:uint8 payload   (Null: none; Int: zig-zag varint;
//	                                Float: 8-byte BE IEEE 754 bits; String: string;
//	                                Bool: one byte; Time: zig-zag varint UnixNano)
//	row    := count:uvarint value*
//	string := len:uvarint bytes
//
// A time keeps its instant but not its zone (it decodes as UTC); a float keeps
// its bit pattern, so -0 and NaN payloads survive. Decoding rejects a kind
// byte outside KindNull..KindTime.

// AppendString appends s with a uvarint length prefix.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBool appends v as one byte, 1 or 0.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendValue appends one tagged value.
func AppendValue(b []byte, v Value) []byte {
	b = append(b, byte(v.Kind))
	switch v.Kind {
	case KindInt:
		b = binary.AppendVarint(b, v.I)
	case KindFloat:
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v.F))
	case KindString:
		b = AppendString(b, v.S)
	case KindBool:
		b = AppendBool(b, v.B)
	case KindTime:
		b = binary.AppendVarint(b, v.T.UnixNano())
	}
	return b
}

// AppendRow appends a count-prefixed value sequence: a row image, a result
// row, or an argument list.
func AppendRow(b []byte, vals []Value) []byte {
	b = binary.AppendUvarint(b, uint64(len(vals)))
	for _, v := range vals {
		b = AppendValue(b, v)
	}
	return b
}

// Decoder is a bounds-checked cursor over bytes written by the Append
// functions. The first failure sticks and later reads return zero values, so
// a caller decodes a whole message and checks Err once. A count or length is
// checked against the bytes left before anything is allocated from it, and
// nothing a Decoder returns aliases its input.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder returns a cursor at the start of b.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err reports the first decoding failure, or nil.
func (d *Decoder) Err() error { return d.err }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("storage: codec: "+format, args...)
	}
}

// take consumes the next n bytes, returning nil (and failing) when fewer are
// left. The result aliases the input; callers copy what they keep.
func (d *Decoder) take(n uint64, what string) []byte {
	if d.err != nil || n > uint64(len(d.b)) {
		d.fail("truncated %s", what)
		return nil
	}
	s := d.b[:n:n]
	d.b = d.b[n:]
	return s
}

// Byte consumes one byte.
func (d *Decoder) Byte() byte {
	if b := d.take(1, "byte"); b != nil {
		return b[0]
	}
	return 0
}

// Bool consumes one byte; any non-zero byte is true.
func (d *Decoder) Bool() bool { return d.Byte() != 0 }

// Uvarint consumes an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Varint consumes a zig-zag signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Str consumes a length-prefixed string.
func (d *Decoder) Str() string {
	return string(d.take(d.Uvarint(), "string"))
}

// Count consumes the count of a sequence whose every element takes at least
// one byte, failing when it exceeds the bytes left — so a caller may size a
// slice from it.
func (d *Decoder) Count() int {
	n := d.Uvarint()
	if d.err == nil && n > uint64(len(d.b)) {
		d.fail("count %d exceeds the %d bytes left", n, len(d.b))
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// Value consumes one tagged value.
func (d *Decoder) Value() Value {
	switch k := Kind(d.Byte()); k {
	case KindNull:
		return Value{}
	case KindInt:
		return Int(d.Varint())
	case KindFloat:
		if b := d.take(8, "float"); b != nil {
			return Float(math.Float64frombits(binary.BigEndian.Uint64(b)))
		}
		return Value{}
	case KindString:
		return Str(d.Str())
	case KindBool:
		return Bool(d.Bool())
	case KindTime:
		return Time(time.Unix(0, d.Varint()).UTC())
	default:
		d.fail("unknown value kind %d", k)
		return Value{}
	}
}

// Row consumes a count-prefixed value sequence; an empty one decodes as nil.
func (d *Decoder) Row() []Value {
	n := d.Count()
	if n == 0 {
		return nil
	}
	vals := make([]Value, n)
	for i := range vals {
		vals[i] = d.Value()
	}
	return vals
}

// Every WAL record, and the snapshot file as a whole, is one checksummed
// frame:
//
//	length:uint32BE  crc:uint32BE(Castagnoli, over payload)  payload
const frameHeaderSize = 8

// crcTable is the Castagnoli polynomial, hardware-accelerated on amd64/arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

var (
	// errFrameTorn: the data ends before the frame does — the classic
	// crash during an append.
	errFrameTorn = errors.New("torn frame")
	// errFrameCorrupt: the length is beyond the caller's limit or the
	// checksum fails — bit rot or a torn sector inside the payload.
	errFrameCorrupt = errors.New("corrupt frame")
)

// appendFrame appends payload as one frame.
func appendFrame(b, payload []byte) []byte {
	start := len(b)
	b = append(b, make([]byte, frameHeaderSize)...)
	b = append(b, payload...)
	sealFrame(b[start:])
	return b
}

// sealFrame fills in the header of frame: a header-sized placeholder followed
// by the payload.
func sealFrame(frame []byte) {
	payload := frame[frameHeaderSize:]
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
}

// cutFrame splits the first frame off data, returning its payload (aliasing
// data) and the bytes after it. A length field beyond limit is corruption,
// not an allocation request.
func cutFrame(data []byte, limit int64) (payload, rest []byte, err error) {
	if len(data) < frameHeaderSize {
		return nil, data, errFrameTorn
	}
	length := int64(binary.BigEndian.Uint32(data[0:4]))
	if length > limit {
		return nil, data, errFrameCorrupt
	}
	if int64(len(data)-frameHeaderSize) < length {
		return nil, data, errFrameTorn
	}
	payload = data[frameHeaderSize : frameHeaderSize+length]
	if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(data[4:8]) {
		return nil, data, errFrameCorrupt
	}
	return payload, data[frameHeaderSize+length:], nil
}
