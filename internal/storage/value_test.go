package storage

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestValueConstructorsAndKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Null(), KindNull},
		{Int(42), KindInt},
		{Float(3.5), KindFloat},
		{Str("hello"), KindString},
		{Bool(true), KindBool},
		{Time(time.Unix(100, 0)), KindTime},
	}
	for _, c := range cases {
		if c.v.Kind != c.kind {
			t.Errorf("constructor produced kind %v, want %v", c.v.Kind, c.kind)
		}
	}
	if !Null().IsNull() || Int(0).IsNull() {
		t.Error("IsNull misclassifies")
	}
}

func TestValueKeyEquality(t *testing.T) {
	if Int(7).Key() != Float(7).Key() {
		t.Error("Int(7) and Float(7) should share an index key")
	}
	if Int(7).Key() == Int(8).Key() {
		t.Error("distinct ints share a key")
	}
	if Str("7").Key() == Int(7).Key() {
		t.Error("string and int must not collide")
	}
	if Bool(true).Key() == Bool(false).Key() {
		t.Error("booleans collide")
	}
	if Null().Key() != Null().Key() {
		t.Error("NULL keys differ")
	}
}

func TestCompareNumericCross(t *testing.T) {
	c, ok := Compare(Int(2), Float(2.5))
	if !ok || c != -1 {
		t.Errorf("Compare(2, 2.5) = %d, %v", c, ok)
	}
	c, ok = Compare(Float(3), Int(3))
	if !ok || c != 0 {
		t.Errorf("Compare(3.0, 3) = %d, %v", c, ok)
	}
	if !Equal(Int(3), Float(3)) {
		t.Error("Equal(3, 3.0) = false")
	}
}

func TestCompareNullOrdering(t *testing.T) {
	if c, _ := Compare(Null(), Int(0)); c != -1 {
		t.Error("NULL should sort before values")
	}
	if c, _ := Compare(Str("x"), Null()); c != 1 {
		t.Error("values should sort after NULL")
	}
	if c, _ := Compare(Null(), Null()); c != 0 {
		t.Error("NULL vs NULL should compare 0")
	}
}

func TestCompareStringsAndTimes(t *testing.T) {
	if c, ok := Compare(Str("a"), Str("b")); !ok || c != -1 {
		t.Error("string compare broken")
	}
	t1, t2 := time.Unix(1, 0), time.Unix(2, 0)
	if c, ok := Compare(Time(t1), Time(t2)); !ok || c != -1 {
		t.Error("time compare broken")
	}
	if c, ok := Compare(Bool(false), Bool(true)); !ok || c != -1 {
		t.Error("bool compare broken")
	}
}

func TestCoerceTo(t *testing.T) {
	if v, ok := Int(5).CoerceTo(KindFloat); !ok || v.F != 5 {
		t.Error("int->float coercion failed")
	}
	if v, ok := Float(5).CoerceTo(KindInt); !ok || v.I != 5 {
		t.Error("float->int (integral) coercion failed")
	}
	if _, ok := Float(5.5).CoerceTo(KindInt); ok {
		t.Error("non-integral float->int should fail")
	}
	if v, ok := Null().CoerceTo(KindString); !ok || !v.IsNull() {
		t.Error("NULL should coerce to anything, staying NULL")
	}
	if _, ok := Str("x").CoerceTo(KindBool); ok {
		t.Error("string->bool should fail")
	}
	if v, ok := Int(5).CoerceTo(KindString); !ok || v.S != "5" {
		t.Error("int->string should format")
	}
}

func TestValueFormat(t *testing.T) {
	cases := map[string]Value{
		"NULL": Null(), "42": Int(42), "true": Bool(true), "hi": Str("hi"),
	}
	for want, v := range cases {
		if got := v.Format(); got != want {
			t.Errorf("Format() = %q, want %q", got, want)
		}
	}
}

// Property: Key() equality coincides with Compare equality for same-kind
// values, and Compare is antisymmetric.
func TestQuickCompareKeyConsistency(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		ca, _ := Compare(va, vb)
		cb, _ := Compare(vb, va)
		if ca != -cb {
			return false
		}
		return (va.Key() == vb.Key()) == (ca == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b string) bool {
		va, vb := Str(a), Str(b)
		ca, _ := Compare(va, vb)
		return (va.Key() == vb.Key()) == (ca == 0)
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

// Property: float/int cross-kind keys agree with numeric equality.
func TestQuickNumericKeyCrossKind(t *testing.T) {
	f := func(i int64) bool {
		if i > 1<<52 || i < -(1<<52) {
			return true // beyond exact float64 integers
		}
		return Int(i).Key() == Float(float64(i)).Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareNegativeZero(t *testing.T) {
	if c, ok := Compare(Float(math.Copysign(0, -1)), Float(0)); !ok || c != 0 {
		t.Error("-0 and +0 should compare equal")
	}
}

// NaN equals only NaN and sorts above every other number; -0 equals 0 and
// shares its key. Keys agree with Compare on both.
func TestCompareNaNAndNegativeZeroKeys(t *testing.T) {
	nan, negZero := Float(math.NaN()), Float(math.Copysign(0, -1))
	for _, c := range []struct {
		a, b Value
		want int
	}{
		{nan, nan, 0},
		{nan, Float(math.Inf(1)), 1},
		{Int(3), nan, -1},
		{Float(3), nan, -1},
		{negZero, Int(0), 0},
	} {
		if got, ok := Compare(c.a, c.b); !ok || got != c.want {
			t.Errorf("Compare(%s, %s) = %d, %v; want %d", c.a.Format(), c.b.Format(), got, ok, c.want)
		}
		if keyEq := c.a.Key() == c.b.Key(); keyEq != (c.want == 0) {
			t.Errorf("keys of %s and %s equal = %v, Compare says %d", c.a.Format(), c.b.Format(), keyEq, c.want)
		}
	}
	if Float(math.Float64frombits(0x7ff8000000000001)).Key() != nan.Key() {
		t.Error("NaN payloads key differently")
	}
}

// FuzzValueHashAgreesWithEqual: whenever sqlEqual holds, the two values hash
// alike (the full-scan prefilter skips on a hash mismatch), and keys are
// equal exactly when Equal says so (an index bucket holds exactly the rows a
// heap walk's Equal would match).
func FuzzValueHashAgreesWithEqual(f *testing.F) {
	type side struct {
		k uint8
		i int64
		f float64
		s string
	}
	for _, p := range [][2]side{
		{{k: 1, i: 3}, {k: 2, f: 3}},                    // Int(3), Float(3)
		{{k: 1, i: 1e6}, {k: 2, f: 1e6}},                // an exponent-form key
		{{k: 1, i: 1 << 53}, {k: 1, i: 1<<53 + 1}},      // equal as float64
		{{k: 2, f: math.Copysign(0, -1)}, {k: 2, f: 0}}, // -0, +0
		{{k: 2, f: math.NaN()}, {k: 2, f: math.NaN()}},  // NaN, NaN
		{{k: 2, f: math.NaN()}, {k: 1, i: 3}},           // NaN, 3
		{{k: 3, s: "x"}, {k: 3, s: "x"}},                // equal strings
		{{k: 4, i: 1}, {k: 4, i: 3}},                    // equal bools
		{{k: 5 + 6*3, i: 1e18}, {k: 5 + 6*40, i: 1e18}}, // one instant, two zones
		{{k: 0}, {k: 0}},                                // NULL, NULL
		{{k: 0}, {k: 1}},                                // NULL, 0
	} {
		f.Add(p[0].k, p[0].i, p[0].f, p[0].s, p[1].k, p[1].i, p[1].f, p[1].s)
	}
	// k selects the kind (k%6) and, for times, the zone (k/6, in 15-minute
	// steps either side of UTC).
	mk := func(k uint8, i int64, fl float64, s string) Value {
		switch k % 6 {
		case 1:
			return Int(i)
		case 2:
			return Float(fl)
		case 3:
			return Str(s)
		case 4:
			return Bool(i%2 != 0)
		case 5:
			zone := time.FixedZone("", (int(k/6)-21)*900)
			return Time(time.Unix(0, i).In(zone))
		default:
			return Null()
		}
	}
	f.Fuzz(func(t *testing.T, ka uint8, ia int64, fa float64, sa string, kb uint8, ib int64, fb float64, sb string) {
		a, b := mk(ka, ia, fa, sa), mk(kb, ib, fb, sb)
		if sqlEqual(&a, &b) && valueHash(&a) != valueHash(&b) {
			t.Fatalf("%v %s = %v %s, but their hashes differ", a.Kind, a.Format(), b.Kind, b.Format())
		}
		if (a.Key() == b.Key()) != Equal(a, b) {
			t.Fatalf("%v %s and %v %s: keys equal %v, Equal %v", a.Kind, a.Format(), b.Kind, b.Format(),
				a.Key() == b.Key(), Equal(a, b))
		}
	})
}
