package storage

import (
	"encoding/binary"
	"math"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

// codecValue builds a value of every kind through its constructor: kind%6
// picks the kind, floats include NaNs with arbitrary payloads (kind >= 128),
// and times carry one of three zones.
func codecValue(kind uint8, i int64, f float64, s string, b bool) Value {
	zones := []*time.Location{time.UTC, time.FixedZone("UTC+5:30", 19800), time.FixedZone("UTC-8", -28800)}
	switch Kind(kind % 6) {
	case KindInt:
		return Int(i)
	case KindFloat:
		if kind >= 128 {
			f = math.Float64frombits(0x7ff8000000000000 | uint64(i)&0x0007ffffffffffff)
		}
		return Float(f)
	case KindString:
		return Str(s)
	case KindBool:
		return Bool(b)
	case KindTime:
		return Time(time.Unix(0, i).In(zones[uint64(i)%3]))
	default:
		return Null()
	}
}

// sameDecoded reports whether out is what decoding in must give: floats equal
// by bit pattern (so NaN equals itself), times the same instant in UTC,
// everything else field for field.
func sameDecoded(in, out Value) bool {
	switch in.Kind {
	case KindFloat:
		return out.Kind == KindFloat && math.Float64bits(in.F) == math.Float64bits(out.F)
	case KindTime:
		return out.Kind == KindTime && out.T.Equal(in.T) && out.T.Location() == time.UTC
	default:
		return in == out
	}
}

// TestCodecRoundTrip property-tests the value codec the WAL, the snapshot and
// the wire share: every value and every row decodes to what was encoded and
// consumes exactly its own bytes, leaving whatever follows it.
func TestCodecRoundTrip(t *testing.T) {
	trailer := []byte{0xff, 0x00}
	value := func(kind uint8, i int64, f float64, s string, b bool) bool {
		in := codecValue(kind, i, f, s, b)
		d := NewDecoder(append(AppendValue(nil, in), trailer...))
		out := d.Value()
		return d.Err() == nil && string(d.b) == string(trailer) && sameDecoded(in, out)
	}
	if err := quick.Check(value, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
	row := func(kinds []uint8, i int64, f float64, s string) bool {
		in := make([]Value, len(kinds))
		for j, k := range kinds {
			in[j] = codecValue(k, i+int64(j), f*float64(j), s, j%2 == 0)
		}
		d := NewDecoder(append(AppendRow(nil, in), trailer...))
		out := d.Row()
		if d.Err() != nil || string(d.b) != string(trailer) || len(out) != len(in) {
			return false
		}
		for j := range in {
			if !sameDecoded(in[j], out[j]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(row, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWALValueRoundTrip pins the edge cases of a WAL row image: extreme ints,
// signed zero, infinities and NaN, empty and NUL-bearing strings, both bools,
// and times at the far past and in a non-UTC zone.
func TestWALValueRoundTrip(t *testing.T) {
	vals := []Value{
		Null(),
		Int(-42), Int(0), Int(1 << 60), Int(math.MinInt64), Int(math.MaxInt64),
		Float(3.25), Float(math.Copysign(0, -1)), Float(math.Inf(-1)), Float(math.NaN()),
		Str(""), Str("héllo\x00wörld"),
		Bool(true), Bool(false),
		Time(time.Unix(0, math.MinInt64)),
		Time(time.Date(2015, 2, 14, 9, 30, 0, 123456789, time.FixedZone("UTC+5:30", 19800))),
	}
	d := NewDecoder(AppendRow(nil, vals))
	got := d.Row()
	if d.Err() != nil || len(d.b) != 0 {
		t.Fatalf("decode: %v, %d bytes left", d.Err(), len(d.b))
	}
	if len(got) != len(vals) {
		t.Fatalf("len = %d, want %d", len(got), len(vals))
	}
	for i := range vals {
		if !sameDecoded(vals[i], got[i]) {
			t.Errorf("value %d: %v decoded as %v", i, vals[i], got[i])
		}
	}
}

// TestDecoderRejects pins the failure side: an unknown kind byte, every
// proper prefix of a row, and a count or length beyond the bytes left are
// errors that stick, with nothing allocated from the bogus count.
func TestDecoderRejects(t *testing.T) {
	for k := int(KindTime) + 1; k < 256; k++ {
		d := NewDecoder([]byte{byte(k), 0, 0, 0, 0, 0, 0, 0, 0})
		if v := d.Value(); d.Err() == nil {
			t.Fatalf("kind %d decoded as %v", k, v)
		}
	}
	full := AppendRow(nil, []Value{Int(-300), Float(1.5), Str("abc"), Bool(true), Time(time.Unix(1, 2)), Null()})
	for n := 0; n < len(full); n++ {
		d := NewDecoder(full[:n])
		if d.Row(); d.Err() == nil {
			t.Fatalf("%d/%d-byte prefix decoded cleanly", n, len(full))
		}
		if d.Uvarint() != 0 || d.Str() != "" || d.Value() != Null() {
			t.Fatal("reads after a failure returned data")
		}
	}
	// A count of 2^20 in front of three bytes would size a 64 MiB row.
	lying := append(binary.AppendUvarint(nil, 1<<20), 1, 2, 3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := NewDecoder(lying)
	row := d.Row()
	runtime.ReadMemStats(&after)
	if row != nil || d.Err() == nil {
		t.Fatal("a count beyond the bytes left was accepted")
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 1<<20 {
		t.Fatalf("a bogus row count allocated %d bytes", grown)
	}
	if d := NewDecoder(lying); d.Str() != "" || d.Err() == nil {
		t.Fatal("a string length beyond the bytes left was accepted")
	}
}
