package sqlfront

import "feralcc/internal/storage"

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// Expr is any parsed expression.
type Expr interface{ expr() }

// --- Expressions -------------------------------------------------------------

// Literal is a constant value.
type Literal struct{ Value storage.Value }

// ColumnRef names a column, optionally qualified by table or alias.
type ColumnRef struct {
	Table  string // "" when unqualified
	Column string
}

// Placeholder is a positional `?` parameter; Index is zero-based.
type Placeholder struct{ Index int }

// Star is the bare `*` projection (or COUNT(*) argument).
type Star struct{}

// BinaryExpr applies an operator to two operands. Op is one of
// = <> < <= > >= AND OR + - * / % ||.
type BinaryExpr struct {
	Op    string
	Left  Expr
	Right Expr
}

// UnaryExpr applies NOT or unary minus.
type UnaryExpr struct {
	Op      string // "NOT" or "-"
	Operand Expr
}

// IsNullExpr tests `x IS [NOT] NULL`.
type IsNullExpr struct {
	Operand Expr
	Negate  bool
}

// InExpr tests `x [NOT] IN (e1, e2, ...)`.
type InExpr struct {
	Operand Expr
	List    []Expr
	Negate  bool
}

// LikeExpr tests `x [NOT] LIKE pattern` with % and _ wildcards.
type LikeExpr struct {
	Operand Expr
	Pattern Expr
	Negate  bool
}

// FuncExpr is an aggregate call: COUNT, SUM, MIN, MAX, AVG.
type FuncExpr struct {
	Name     string // upper-cased
	Arg      Expr   // Star{} for COUNT(*)
	Distinct bool
}

func (*Literal) expr()     {}
func (*ColumnRef) expr()   {}
func (*Placeholder) expr() {}
func (*Star) expr()        {}
func (*BinaryExpr) expr()  {}
func (*UnaryExpr) expr()   {}
func (*IsNullExpr) expr()  {}
func (*InExpr) expr()      {}
func (*LikeExpr) expr()    {}
func (*FuncExpr) expr()    {}

// --- Statements --------------------------------------------------------------

// SelectItem is one projection with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// TableRef names a table with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// JoinKind distinguishes join types.
type JoinKind uint8

const (
	InnerJoin JoinKind = iota
	LeftOuterJoin
)

// Join is one joined table with its ON condition.
type Join struct {
	Kind  JoinKind
	Table TableRef
	On    Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Items     []SelectItem
	From      TableRef
	Joins     []Join
	Where     Expr
	GroupBy   []Expr
	Having    Expr
	OrderBy   []OrderItem
	Limit     Expr // nil when absent
	Offset    Expr
	ForUpdate bool
}

// InsertStmt is an INSERT with explicit column lists and one or more rows.
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]Expr
}

// UpdateStmt is an UPDATE ... SET ... [WHERE].
type UpdateStmt struct {
	Table string
	Set   []SetClause
	Where Expr
}

// SetClause is one `col = expr` assignment.
type SetClause struct {
	Column string
	Value  Expr
}

// DeleteStmt is a DELETE FROM ... [WHERE].
type DeleteStmt struct {
	Table string
	Where Expr
}

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name       string
	Kind       storage.Kind
	NotNull    bool
	PrimaryKey bool
	Unique     bool
	Default    *Literal
	References *ForeignKeyClause
}

// ForeignKeyClause is an inline REFERENCES constraint.
type ForeignKeyClause struct {
	ParentTable string
	OnDelete    storage.ReferentialAction
}

// CreateTableStmt creates a table.
type CreateTableStmt struct {
	Name    string
	Columns []ColumnDef
}

// CreateIndexStmt creates a secondary (optionally unique) index.
type CreateIndexStmt struct {
	Name   string
	Table  string
	Column string
	Unique bool
}

// DropTableStmt drops a table.
type DropTableStmt struct{ Name string }

// AlterTableAddFKStmt adds a foreign key to an existing table:
// ALTER TABLE child ADD FOREIGN KEY (col) REFERENCES parent [ON DELETE ...].
type AlterTableAddFKStmt struct {
	Table       string
	Column      string
	ParentTable string
	OnDelete    storage.ReferentialAction
}

// BeginStmt starts a transaction, optionally at an explicit isolation level.
type BeginStmt struct {
	HasLevel bool
	Level    storage.IsolationLevel
}

// CommitStmt commits the current transaction.
type CommitStmt struct{}

// RollbackStmt aborts the current transaction.
type RollbackStmt struct{}

// ShowTablesStmt lists tables (shell convenience).
type ShowTablesStmt struct{}

func (*SelectStmt) stmt()          {}
func (*InsertStmt) stmt()          {}
func (*UpdateStmt) stmt()          {}
func (*DeleteStmt) stmt()          {}
func (*CreateTableStmt) stmt()     {}
func (*CreateIndexStmt) stmt()     {}
func (*DropTableStmt) stmt()       {}
func (*AlterTableAddFKStmt) stmt() {}
func (*BeginStmt) stmt()           {}
func (*CommitStmt) stmt()          {}
func (*RollbackStmt) stmt()        {}
func (*ShowTablesStmt) stmt()      {}

// CountPlaceholders returns the number of distinct `?` parameters in the
// statement (placeholders are numbered in lexical order during parsing).
func CountPlaceholders(s Statement) int {
	max := -1
	WalkExprs(s, func(e Expr) {
		if p, ok := e.(*Placeholder); ok && p.Index > max {
			max = p.Index
		}
	})
	return max + 1
}

// WalkExprs visits every expression in a statement, parents before children.
func WalkExprs(s Statement, fn func(Expr)) {
	var walk func(Expr)
	walk = func(e Expr) {
		if e == nil {
			return
		}
		fn(e)
		switch t := e.(type) {
		case *BinaryExpr:
			walk(t.Left)
			walk(t.Right)
		case *UnaryExpr:
			walk(t.Operand)
		case *IsNullExpr:
			walk(t.Operand)
		case *InExpr:
			walk(t.Operand)
			for _, x := range t.List {
				walk(x)
			}
		case *LikeExpr:
			walk(t.Operand)
			walk(t.Pattern)
		case *FuncExpr:
			walk(t.Arg)
		}
	}
	switch t := s.(type) {
	case *SelectStmt:
		for _, it := range t.Items {
			walk(it.Expr)
		}
		for _, j := range t.Joins {
			walk(j.On)
		}
		walk(t.Where)
		for _, g := range t.GroupBy {
			walk(g)
		}
		walk(t.Having)
		for _, o := range t.OrderBy {
			walk(o.Expr)
		}
		walk(t.Limit)
		walk(t.Offset)
	case *InsertStmt:
		for _, row := range t.Rows {
			for _, e := range row {
				walk(e)
			}
		}
	case *UpdateStmt:
		for _, sc := range t.Set {
			walk(sc.Value)
		}
		walk(t.Where)
	case *DeleteStmt:
		walk(t.Where)
	}
}
