// Package storage implements the multi-version storage engine underpinning
// the feral concurrency control study: tables of typed rows with version
// chains, secondary and unique indexes, a transaction manager supporting the
// isolation levels discussed in the paper (Read Committed, Repeatable Read,
// Snapshot Isolation, and two serializable implementations), row-level
// pessimistic locks (SELECT FOR UPDATE), and in-database constraints
// (uniqueness and foreign keys with cascading deletes).
//
// The engine plays the role PostgreSQL played in the paper's experimental
// deployment: it is the single point of rendezvous between otherwise
// unsynchronized application workers, and its isolation level determines
// whether feral (application-level) validations actually hold.
package storage

import (
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the column types the engine supports.
type Kind uint8

// Supported value kinds. KindNull is the type of the SQL NULL literal and of
// any unset column.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindTime
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "BIGINT"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "TEXT"
	case KindBool:
		return "BOOLEAN"
	case KindTime:
		return "TIMESTAMP"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed SQL value. The zero Value is NULL.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
	B    bool
	T    time.Time
}

// Null returns the SQL NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(i int64) Value { return Value{Kind: KindInt, I: i} }

// Float returns a floating-point value.
func Float(f float64) Value { return Value{Kind: KindFloat, F: f} }

// String returns a text value.
func Str(s string) Value { return Value{Kind: KindString, S: s} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{Kind: KindBool, B: b} }

// Time returns a timestamp value.
func Time(t time.Time) Value { return Value{Kind: KindTime, T: t} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// Key returns a string encoding of v usable as an index key. Two values have
// equal keys iff they compare equal under Compare. Integers and floats that
// represent the same number map to the same key so that mixed-type equality
// predicates behave as users expect; -0 keys as 0, and every NaN as NaN.
func (v Value) Key() string {
	var buf [32]byte
	b := buf[:0]
	switch v.Kind {
	case KindNull:
		return "n"
	case KindInt:
		b = strconv.AppendFloat(append(b, 'f'), float64(v.I), 'g', -1, 64)
	case KindFloat:
		f := v.F
		if f == 0 {
			f = 0 // -0 == 0
		}
		b = strconv.AppendFloat(append(b, 'f'), f, 'g', -1, 64)
	case KindString:
		return "s" + v.S
	case KindBool:
		if v.B {
			return "bt"
		}
		return "bf"
	case KindTime:
		b = strconv.AppendInt(append(b, 't'), v.T.UnixNano(), 10)
	default:
		panic("storage: invalid value kind")
	}
	return string(b)
}

// hashSeed keys valueHash's string hashing for the life of the process;
// hashes are never persisted.
var hashSeed = maphash.MakeSeed()

// valueHash returns a hash of v for the full-scan prefilter: any two values
// sqlEqual calls equal hash alike. Numbers hash by their float64 value (so
// Int(3) and Float(3) agree, -0 folds into 0 and every NaN into one NaN),
// strings by their bytes, times by their instant.
func valueHash(v *Value) uint64 {
	switch v.Kind {
	case KindInt:
		return floatHash(float64(v.I))
	case KindFloat:
		return floatHash(v.F)
	case KindString:
		return maphash.String(hashSeed, v.S)
	case KindBool:
		if v.B {
			return mix64(1)
		}
		return mix64(2)
	case KindTime:
		return mix64(uint64(v.T.Unix())*1_000_000_007 + uint64(v.T.Nanosecond()))
	default:
		return 0
	}
}

func floatHash(f float64) uint64 {
	switch {
	case f == 0:
		f = 0
	case f != f:
		f = math.NaN()
	}
	return mix64(math.Float64bits(f))
}

// mix64 is the splitmix64 finalizer: it spreads nearby inputs (small
// integers, adjacent floats) over the whole word.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// numeric returns the value as a float64 and whether it is numeric.
func (v Value) numeric() (float64, bool) {
	switch v.Kind {
	case KindInt:
		return float64(v.I), true
	case KindFloat:
		return v.F, true
	default:
		return 0, false
	}
}

// Compare orders two values. NULL sorts before everything; values of
// incomparable kinds order by kind. Numeric kinds compare numerically across
// int/float. The second result reports whether the values were of comparable
// kinds (NULL compares with anything).
func Compare(a, b Value) (int, bool) {
	if a.Kind == KindNull || b.Kind == KindNull {
		switch {
		case a.Kind == b.Kind:
			return 0, true
		case a.Kind == KindNull:
			return -1, true
		default:
			return 1, true
		}
	}
	an, aNum := a.numeric()
	bn, bNum := b.numeric()
	if aNum && bNum {
		// NaN equals only NaN and sorts above every other number, as in
		// PostgreSQL; -0 and +0 compare equal.
		aNaN, bNaN := math.IsNaN(an), math.IsNaN(bn)
		switch {
		case aNaN || bNaN:
			switch {
			case aNaN == bNaN:
				return 0, true
			case aNaN:
				return 1, true
			default:
				return -1, true
			}
		case an < bn:
			return -1, true
		case an > bn:
			return 1, true
		default:
			return 0, true
		}
	}
	if a.Kind != b.Kind {
		if a.Kind < b.Kind {
			return -1, false
		}
		return 1, false
	}
	switch a.Kind {
	case KindString:
		return strings.Compare(a.S, b.S), true
	case KindBool:
		switch {
		case a.B == b.B:
			return 0, true
		case !a.B:
			return -1, true
		default:
			return 1, true
		}
	case KindTime:
		switch {
		case a.T.Before(b.T):
			return -1, true
		case a.T.After(b.T):
			return 1, true
		default:
			return 0, true
		}
	default:
		panic("storage: invalid value kind")
	}
}

// Equal reports whether a and b compare equal. SQL three-valued logic is the
// caller's concern: Equal(NULL, NULL) is true here; predicate evaluation in
// the executor applies NULL semantics before calling this.
func Equal(a, b Value) bool {
	c, ok := Compare(a, b)
	return ok && c == 0
}

// Format renders the value for display and logs.
func (v Value) Format() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		return strconv.FormatBool(v.B)
	case KindTime:
		return v.T.UTC().Format(time.RFC3339Nano)
	default:
		return "?"
	}
}

// CoerceTo attempts to convert v to kind k, returning the converted value and
// whether the conversion is allowed. NULL coerces to any kind (staying NULL).
func (v Value) CoerceTo(k Kind) (Value, bool) {
	if v.Kind == KindNull {
		return v, true
	}
	if v.Kind == k {
		return v, true
	}
	switch k {
	case KindFloat:
		if v.Kind == KindInt {
			return Float(float64(v.I)), true
		}
	case KindInt:
		if v.Kind == KindFloat && v.F == math.Trunc(v.F) {
			return Int(int64(v.F)), true
		}
	case KindString:
		return Str(v.Format()), true
	}
	return Value{}, false
}
