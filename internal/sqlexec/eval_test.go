package sqlexec

import (
	"testing"

	"feralcc/internal/sqlfront"
	"feralcc/internal/storage"
)

func evalIn(t *testing.T, e *env, src string) storage.Value {
	t.Helper()
	stmt, err := sqlfront.Parse("SELECT " + src + " FROM t")
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	v, err := e.eval(stmt.(*sqlfront.SelectStmt).Items[0].Expr)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func testEnv() *env {
	schema := &storage.Schema{Name: "t", Columns: []storage.Column{
		{Name: "id", Kind: storage.KindInt},
		{Name: "n", Kind: storage.KindInt},
		{Name: "s", Kind: storage.KindString},
		{Name: "nul", Kind: storage.KindString},
		{Name: "b", Kind: storage.KindBool},
	}}
	return &env{
		bindings: []binding{{name: "t", schema: schema, vals: []storage.Value{
			storage.Int(1), storage.Int(7), storage.Str("hi"), storage.Null(), storage.Bool(true),
		}}},
		args: []storage.Value{storage.Int(99)},
	}
}

func TestEvalScalars(t *testing.T) {
	e := testEnv()
	cases := map[string]storage.Value{
		"1 + 2 * 3":          storage.Int(7),
		"(1 + 2) * 3":        storage.Int(9),
		"n - 10":             storage.Int(-3),
		"n % 4":              storage.Int(3),
		"n / 2":              storage.Int(3),
		"10.0 / 4":           storage.Float(2.5),
		"-n":                 storage.Int(-7),
		"s || '!'":           storage.Str("hi!"),
		"?":                  storage.Int(99),
		"nul + 1":            storage.Null(),
		"NOT (n = 7)":        storage.Bool(false),
		"n = 7 AND b = TRUE": storage.Bool(true),
		"nul = nul":          storage.Null(),
		"nul IS NULL":        storage.Bool(true),
		"s IS NOT NULL":      storage.Bool(true),
		"n IN (1, 7, 9)":     storage.Bool(true),
		"n NOT IN (1, 2)":    storage.Bool(true),
		"n IN (1, nul)":      storage.Null(), // unknown membership
		"s LIKE 'h%'":        storage.Bool(true),
		"t.n + 1":            storage.Int(8),
	}
	for src, want := range cases {
		got := evalIn(t, e, src)
		if got.Kind != want.Kind || !storage.Equal(got, want) && !(got.IsNull() && want.IsNull()) {
			t.Errorf("%q = %v (%v), want %v (%v)", src, got.Format(), got.Kind, want.Format(), want.Kind)
		}
	}
}

func TestEvalKleeneLogic(t *testing.T) {
	e := testEnv()
	cases := map[string]storage.Value{
		"nul = 'x' AND 1 = 2": storage.Bool(false), // FALSE dominates NULL
		"nul = 'x' AND 1 = 1": storage.Null(),
		"nul = 'x' OR 1 = 1":  storage.Bool(true), // TRUE dominates NULL
		"nul = 'x' OR 1 = 2":  storage.Null(),
		"NOT (nul = 'x')":     storage.Null(),
	}
	for src, want := range cases {
		got := evalIn(t, e, src)
		if got.Kind != want.Kind || (want.Kind == storage.KindBool && got.B != want.B) {
			t.Errorf("%q = %v/%v, want %v/%v", src, got.Kind, got.B, want.Kind, want.B)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	e := testEnv()
	bad := []string{
		"n / 0",
		"n % 0",
		"ghost + 1",
		"s + 1",
		"NOT s",
		"-s",
		"n LIKE 'x'",
		"COUNT(n)", // aggregate outside aggregation context
	}
	for _, src := range bad {
		stmt, err := sqlfront.Parse("SELECT " + src + " FROM t")
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := e.eval(stmt.(*sqlfront.SelectStmt).Items[0].Expr); err == nil {
			t.Errorf("eval %q should fail", src)
		}
	}
}

func TestEvalAmbiguityAcrossBindings(t *testing.T) {
	schema := &storage.Schema{Name: "x", Columns: []storage.Column{{Name: "v", Kind: storage.KindInt}}}
	e := &env{bindings: []binding{
		{name: "a", schema: schema, vals: []storage.Value{storage.Int(1)}},
		{name: "b", schema: schema, vals: []storage.Value{storage.Int(2)}},
	}}
	if _, err := e.lookup(&sqlfront.ColumnRef{Column: "v"}); err == nil {
		t.Error("unqualified ambiguous column should fail")
	}
	v, err := e.lookup(&sqlfront.ColumnRef{Table: "b", Column: "v"})
	if err != nil || v.I != 2 {
		t.Errorf("qualified lookup: %v %v", v, err)
	}
	// Null-extended binding reads as NULL.
	e.bindings[1].vals = nil
	v, err = e.lookup(&sqlfront.ColumnRef{Table: "b", Column: "v"})
	if err != nil || !v.IsNull() {
		t.Errorf("null-extended lookup: %v %v", v, err)
	}
}

func TestRenderExprStability(t *testing.T) {
	// renderExpr keys the aggregate table: identical expressions must render
	// identically, distinct ones must not collide.
	parse := func(src string) sqlfront.Expr {
		stmt, err := sqlfront.Parse("SELECT " + src + " FROM t")
		if err != nil {
			t.Fatal(err)
		}
		return stmt.(*sqlfront.SelectStmt).Items[0].Expr
	}
	if renderExpr(parse("COUNT(*)")) != renderExpr(parse("COUNT( * )")) {
		t.Error("whitespace changed rendering")
	}
	if renderExpr(parse("COUNT(n)")) == renderExpr(parse("COUNT(s)")) {
		t.Error("distinct aggregates collide")
	}
	if renderExpr(parse("SUM(n)")) == renderExpr(parse("COUNT(n)")) {
		t.Error("distinct functions collide")
	}
	if renderExpr(parse("COUNT(DISTINCT n)")) == renderExpr(parse("COUNT(n)")) {
		t.Error("DISTINCT not part of the key")
	}
}

func TestPushdownFilterSelection(t *testing.T) {
	schema := &storage.Schema{Name: "t", Columns: []storage.Column{
		{Name: "id", Kind: storage.KindInt},
		{Name: "k", Kind: storage.KindString},
	}}
	parseWhere := func(src string) sqlfront.Expr {
		stmt, err := sqlfront.Parse("SELECT id FROM t WHERE " + src)
		if err != nil {
			t.Fatal(err)
		}
		return stmt.(*sqlfront.SelectStmt).Where
	}
	args := []storage.Value{storage.Str("v")}
	cases := []struct {
		src  string
		want string // pushed-down column or ""
	}{
		{"k = 'a'", "k"},
		{"'a' = k", "k"},
		{"k = ?", "k"},
		{"k = 'a' AND id > 5", "k"},
		{"id > 5 AND k = 'a'", "k"},
		{"k = 'a' OR id = 1", ""}, // disjunction cannot push down
		{"k <> 'a'", ""},
		{"k = NULL", ""}, // NULL never matches; no index probe
		{"other.k = 'a'", ""},
	}
	for _, c := range cases {
		f, err := pushdownFilter(schema, "", parseWhere(c.src), args)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		got := ""
		if f != nil {
			got = f.Column
		}
		if got != c.want {
			t.Errorf("pushdown(%q) = %q, want %q", c.src, got, c.want)
		}
	}
}

// TestProjectRowAllocatesOnce pins projectRow's sizing: the output row is
// allocated once at the projection's width, stars expanded, rather than grown
// by append (four allocations for the five-column star).
func TestProjectRowAllocatesOnce(t *testing.T) {
	e := testEnv()
	for src, width := range map[string]int{"*": 5, "*, n": 6, "id, s": 2} {
		stmt, err := sqlfront.Parse("SELECT " + src + " FROM t")
		if err != nil {
			t.Fatal(err)
		}
		sel := stmt.(*sqlfront.SelectStmt)
		if row, err := projectRow(sel, e); err != nil || len(row) != width || cap(row) != width {
			t.Errorf("SELECT %s: %d values, capacity %d, %v; want %d", src, len(row), cap(row), err, width)
		}
		if allocs := testing.AllocsPerRun(100, func() { projectRow(sel, e) }); allocs != 1 {
			t.Errorf("SELECT %s: %.0f allocations per row, want 1", src, allocs)
		}
	}
}
