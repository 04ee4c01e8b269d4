// Package sqlexec plans and executes parsed SQL statements against the
// storage engine: filter pushdown with index selection, nested-loop inner
// and left-outer joins, grouping and aggregation, ordering, and DML. It is
// the query-processing half of the PostgreSQL stand-in; package db wraps it
// in a connection/session API.
package sqlexec

import (
	"errors"
	"fmt"
	"strings"

	"feralcc/internal/sqlfront"
	"feralcc/internal/storage"
)

// Errors surfaced by execution. Storage-level errors (serialization
// failures, constraint violations) pass through unchanged.
var (
	ErrUnboundPlaceholder = errors.New("sqlexec: statement has more placeholders than arguments")
	ErrAmbiguousColumn    = errors.New("sqlexec: ambiguous column reference")
	ErrUnknownColumn      = errors.New("sqlexec: unknown column")
	ErrNoActiveTx         = errors.New("sqlexec: no transaction in progress")
	ErrTxInProgress       = errors.New("sqlexec: transaction already in progress")
	ErrNotAggregate       = errors.New("sqlexec: aggregate function used outside aggregation")
)

// binding is one named tuple slot in a row environment: a table (or alias)
// with its schema and current values (nil values for a null-extended outer
// join side).
type binding struct {
	name   string // lower-cased alias or table name
	schema *storage.Schema
	rowID  storage.RowID
	vals   []storage.Value // nil when the side is null-extended
}

// env is the evaluation environment for a single logical row.
type env struct {
	bindings []binding
	args     []storage.Value
	// aggs maps rendered aggregate expressions to precomputed values when
	// evaluating grouped projections/HAVING.
	aggs map[string]storage.Value
	// cols is the plan's column resolution (Prepared.cols); set only on
	// environments whose one binding is that plan's table.
	cols map[*sqlfront.ColumnRef]int
}

// lookup resolves a column reference.
func (e *env) lookup(ref *sqlfront.ColumnRef) (storage.Value, error) {
	if pos, ok := e.cols[ref]; ok {
		return e.bindings[0].vals[pos], nil
	}
	want := strings.ToLower(ref.Table)
	found := false
	var out storage.Value
	for i := range e.bindings {
		b := &e.bindings[i]
		if want != "" && b.name != want {
			continue
		}
		pos := b.schema.ColumnIndex(ref.Column)
		if pos < 0 {
			continue
		}
		if found {
			return storage.Value{}, fmt.Errorf("%w: %s", ErrAmbiguousColumn, ref.Column)
		}
		found = true
		if b.vals == nil {
			out = storage.Null()
		} else {
			out = b.vals[pos]
		}
	}
	if !found {
		name := ref.Column
		if ref.Table != "" {
			name = ref.Table + "." + ref.Column
		}
		return storage.Value{}, fmt.Errorf("%w: %s", ErrUnknownColumn, name)
	}
	return out, nil
}

// eval computes an expression under SQL three-valued logic: NULL operands
// propagate through comparisons and arithmetic; AND/OR follow Kleene logic.
func (e *env) eval(x sqlfront.Expr) (storage.Value, error) {
	switch t := x.(type) {
	case *sqlfront.Literal:
		return t.Value, nil
	case *sqlfront.ColumnRef:
		return e.lookup(t)
	case *sqlfront.Placeholder:
		if t.Index >= len(e.args) {
			return storage.Value{}, fmt.Errorf("%w: placeholder %d of %d args",
				ErrUnboundPlaceholder, t.Index+1, len(e.args))
		}
		return e.args[t.Index], nil
	case *sqlfront.Star:
		return storage.Value{}, fmt.Errorf("sqlexec: * is not a value expression")
	case *sqlfront.UnaryExpr:
		v, err := e.eval(t.Operand)
		if err != nil {
			return storage.Value{}, err
		}
		switch t.Op {
		case "NOT":
			if v.IsNull() {
				return storage.Null(), nil
			}
			if v.Kind != storage.KindBool {
				return storage.Value{}, fmt.Errorf("sqlexec: NOT applied to %s", v.Kind)
			}
			return storage.Bool(!v.B), nil
		case "-":
			switch v.Kind {
			case storage.KindNull:
				return storage.Null(), nil
			case storage.KindInt:
				return storage.Int(-v.I), nil
			case storage.KindFloat:
				return storage.Float(-v.F), nil
			default:
				return storage.Value{}, fmt.Errorf("sqlexec: unary minus applied to %s", v.Kind)
			}
		}
		return storage.Value{}, fmt.Errorf("sqlexec: unknown unary op %q", t.Op)
	case *sqlfront.IsNullExpr:
		v, err := e.eval(t.Operand)
		if err != nil {
			return storage.Value{}, err
		}
		return storage.Bool(v.IsNull() != t.Negate), nil
	case *sqlfront.InExpr:
		v, err := e.eval(t.Operand)
		if err != nil {
			return storage.Value{}, err
		}
		sawNull := v.IsNull()
		hit := false
		for _, item := range t.List {
			iv, err := e.eval(item)
			if err != nil {
				return storage.Value{}, err
			}
			if iv.IsNull() || v.IsNull() {
				sawNull = true
				continue
			}
			if storage.Equal(v, iv) {
				hit = true
				break
			}
		}
		if hit {
			return storage.Bool(!t.Negate), nil
		}
		if sawNull {
			return storage.Null(), nil
		}
		return storage.Bool(t.Negate), nil
	case *sqlfront.LikeExpr:
		v, err := e.eval(t.Operand)
		if err != nil {
			return storage.Value{}, err
		}
		p, err := e.eval(t.Pattern)
		if err != nil {
			return storage.Value{}, err
		}
		if v.IsNull() || p.IsNull() {
			return storage.Null(), nil
		}
		if v.Kind != storage.KindString || p.Kind != storage.KindString {
			return storage.Value{}, fmt.Errorf("sqlexec: LIKE requires strings")
		}
		return storage.Bool(LikeMatch(v.S, p.S) != t.Negate), nil
	case *sqlfront.FuncExpr:
		if e.aggs != nil {
			if v, ok := e.aggs[renderExpr(t)]; ok {
				return v, nil
			}
		}
		return storage.Value{}, fmt.Errorf("%w: %s", ErrNotAggregate, t.Name)
	case *sqlfront.BinaryExpr:
		return e.evalBinary(t)
	default:
		return storage.Value{}, fmt.Errorf("sqlexec: unhandled expression %T", x)
	}
}

func (e *env) evalBinary(t *sqlfront.BinaryExpr) (storage.Value, error) {
	// Kleene AND/OR must short-circuit correctly around NULLs.
	if t.Op == "AND" || t.Op == "OR" {
		l, err := e.eval(t.Left)
		if err != nil {
			return storage.Value{}, err
		}
		r, err := e.eval(t.Right)
		if err != nil {
			return storage.Value{}, err
		}
		lb, lNull, err := asBool(l)
		if err != nil {
			return storage.Value{}, err
		}
		rb, rNull, err := asBool(r)
		if err != nil {
			return storage.Value{}, err
		}
		if t.Op == "AND" {
			switch {
			case !lNull && !lb, !rNull && !rb:
				return storage.Bool(false), nil
			case lNull || rNull:
				return storage.Null(), nil
			default:
				return storage.Bool(true), nil
			}
		}
		switch {
		case !lNull && lb, !rNull && rb:
			return storage.Bool(true), nil
		case lNull || rNull:
			return storage.Null(), nil
		default:
			return storage.Bool(false), nil
		}
	}

	l, err := e.eval(t.Left)
	if err != nil {
		return storage.Value{}, err
	}
	r, err := e.eval(t.Right)
	if err != nil {
		return storage.Value{}, err
	}
	switch t.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return storage.Null(), nil
		}
		c, ok := storage.Compare(l, r)
		if !ok {
			return storage.Value{}, fmt.Errorf("sqlexec: cannot compare %s with %s", l.Kind, r.Kind)
		}
		switch t.Op {
		case "=":
			return storage.Bool(c == 0), nil
		case "<>":
			return storage.Bool(c != 0), nil
		case "<":
			return storage.Bool(c < 0), nil
		case "<=":
			return storage.Bool(c <= 0), nil
		case ">":
			return storage.Bool(c > 0), nil
		default:
			return storage.Bool(c >= 0), nil
		}
	case "||":
		if l.IsNull() || r.IsNull() {
			return storage.Null(), nil
		}
		ls, _ := l.CoerceTo(storage.KindString)
		rs, _ := r.CoerceTo(storage.KindString)
		return storage.Str(ls.S + rs.S), nil
	case "+", "-", "*", "/", "%":
		return evalArith(t.Op, l, r)
	default:
		return storage.Value{}, fmt.Errorf("sqlexec: unknown operator %q", t.Op)
	}
}

func evalArith(op string, l, r storage.Value) (storage.Value, error) {
	if l.IsNull() || r.IsNull() {
		return storage.Null(), nil
	}
	if l.Kind == storage.KindInt && r.Kind == storage.KindInt {
		a, b := l.I, r.I
		switch op {
		case "+":
			return storage.Int(a + b), nil
		case "-":
			return storage.Int(a - b), nil
		case "*":
			return storage.Int(a * b), nil
		case "/":
			if b == 0 {
				return storage.Value{}, fmt.Errorf("sqlexec: division by zero")
			}
			return storage.Int(a / b), nil
		case "%":
			if b == 0 {
				return storage.Value{}, fmt.Errorf("sqlexec: division by zero")
			}
			return storage.Int(a % b), nil
		}
	}
	lf, lok := numericOf(l)
	rf, rok := numericOf(r)
	if !lok || !rok {
		return storage.Value{}, fmt.Errorf("sqlexec: arithmetic on %s and %s", l.Kind, r.Kind)
	}
	switch op {
	case "+":
		return storage.Float(lf + rf), nil
	case "-":
		return storage.Float(lf - rf), nil
	case "*":
		return storage.Float(lf * rf), nil
	case "/":
		if rf == 0 {
			return storage.Value{}, fmt.Errorf("sqlexec: division by zero")
		}
		return storage.Float(lf / rf), nil
	default:
		return storage.Value{}, fmt.Errorf("sqlexec: %% requires integers")
	}
}

func numericOf(v storage.Value) (float64, bool) {
	switch v.Kind {
	case storage.KindInt:
		return float64(v.I), true
	case storage.KindFloat:
		return v.F, true
	default:
		return 0, false
	}
}

// asBool interprets a value as a SQL truth value: (value, isNull, error).
func asBool(v storage.Value) (bool, bool, error) {
	switch v.Kind {
	case storage.KindNull:
		return false, true, nil
	case storage.KindBool:
		return v.B, false, nil
	default:
		return false, false, fmt.Errorf("sqlexec: expected boolean, got %s", v.Kind)
	}
}

// truthy reports whether a predicate result is TRUE (NULL and FALSE both
// reject the row).
func truthy(v storage.Value) bool {
	return v.Kind == storage.KindBool && v.B
}

// LikeMatch reports whether s matches the SQL LIKE pattern, where % matches
// any run of bytes (none included) and _ any single byte. It is the greedy
// match with one backtrack point: on a mismatch it returns to the latest %
// and lets it absorb one more byte of s. A later % subsumes every earlier
// one, so no other point is ever needed, and the match takes
// O(len(s)·len(pattern)) steps whatever the pattern.
func LikeMatch(s, pattern string) bool {
	si, pi := 0, 0
	star, mark := -1, 0 // the latest % in pattern, and where its run in s ends
	for si < len(s) {
		switch {
		case pi < len(pattern) && pattern[pi] == '%':
			star, mark = pi, si
			pi++
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case star >= 0:
			mark++
			si, pi = mark, star+1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// renderExpr produces a canonical string for an expression, used to match
// aggregate expressions between projection/HAVING and the aggregation pass.
func renderExpr(x sqlfront.Expr) string {
	switch t := x.(type) {
	case *sqlfront.Literal:
		return "lit:" + t.Value.Key()
	case *sqlfront.ColumnRef:
		return "col:" + strings.ToLower(t.Table) + "." + strings.ToLower(t.Column)
	case *sqlfront.Placeholder:
		return fmt.Sprintf("ph:%d", t.Index)
	case *sqlfront.Star:
		return "*"
	case *sqlfront.UnaryExpr:
		return t.Op + "(" + renderExpr(t.Operand) + ")"
	case *sqlfront.IsNullExpr:
		return fmt.Sprintf("isnull(%s,%v)", renderExpr(t.Operand), t.Negate)
	case *sqlfront.InExpr:
		parts := make([]string, len(t.List))
		for i, e := range t.List {
			parts[i] = renderExpr(e)
		}
		return fmt.Sprintf("in(%s,[%s],%v)", renderExpr(t.Operand), strings.Join(parts, ","), t.Negate)
	case *sqlfront.LikeExpr:
		return fmt.Sprintf("like(%s,%s,%v)", renderExpr(t.Operand), renderExpr(t.Pattern), t.Negate)
	case *sqlfront.FuncExpr:
		return fmt.Sprintf("%s(%s,%v)", t.Name, renderExpr(t.Arg), t.Distinct)
	case *sqlfront.BinaryExpr:
		return "(" + renderExpr(t.Left) + t.Op + renderExpr(t.Right) + ")"
	default:
		return fmt.Sprintf("%T", x)
	}
}

// containsAggregate reports whether the expression tree contains an
// aggregate function call.
func containsAggregate(x sqlfront.Expr) bool {
	found := false
	var walk func(sqlfront.Expr)
	walk = func(e sqlfront.Expr) {
		if e == nil || found {
			return
		}
		switch t := e.(type) {
		case *sqlfront.FuncExpr:
			found = true
		case *sqlfront.BinaryExpr:
			walk(t.Left)
			walk(t.Right)
		case *sqlfront.UnaryExpr:
			walk(t.Operand)
		case *sqlfront.IsNullExpr:
			walk(t.Operand)
		case *sqlfront.InExpr:
			walk(t.Operand)
			for _, i := range t.List {
				walk(i)
			}
		case *sqlfront.LikeExpr:
			walk(t.Operand)
			walk(t.Pattern)
		}
	}
	walk(x)
	return found
}

// collectAggregates gathers every aggregate call in an expression tree.
func collectAggregates(x sqlfront.Expr, out map[string]*sqlfront.FuncExpr) {
	var walk func(sqlfront.Expr)
	walk = func(e sqlfront.Expr) {
		if e == nil {
			return
		}
		switch t := e.(type) {
		case *sqlfront.FuncExpr:
			out[renderExpr(t)] = t
		case *sqlfront.BinaryExpr:
			walk(t.Left)
			walk(t.Right)
		case *sqlfront.UnaryExpr:
			walk(t.Operand)
		case *sqlfront.IsNullExpr:
			walk(t.Operand)
		case *sqlfront.InExpr:
			walk(t.Operand)
			for _, i := range t.List {
				walk(i)
			}
		case *sqlfront.LikeExpr:
			walk(t.Operand)
			walk(t.Pattern)
		}
	}
	walk(x)
}
