package sqlexec

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"feralcc/internal/obs"
	"feralcc/internal/sqlfront"
	"feralcc/internal/storage"
)

// Result is the outcome of one statement.
type Result struct {
	// Columns and Rows are set for SELECT (and SHOW) statements.
	Columns []string
	Rows    [][]storage.Value
	// RowsAffected counts rows written by INSERT/UPDATE/DELETE.
	RowsAffected int64
	// LastInsertID is the primary key assigned to the last inserted row.
	LastInsertID int64
	// Trace is the statement's trace record: its ID, plan-cache verdict, and
	// per-span timings (parse, lock wait, commit, WAL append/fsync, exec).
	Trace obs.StmtTrace
}

// Session executes SQL against a database with transaction state, in the
// shape of one database connection: one transaction at a time, autocommit
// when none is open.
type Session struct {
	db *storage.Database
	tx *storage.Tx
	// stmtDeadline bounds the statement currently executing (zero = none);
	// set by ExecutePreparedContext from the caller's context deadline.
	stmtDeadline time.Time

	// trace is the statement trace being built; it lives in the session (not
	// per statement) so tracing never allocates. The pending* fields stage
	// state produced before execPlan resets the trace: a caller-supplied ID
	// (BeginTrace), the plan-cache verdict, and parse time spent in Prepare.
	trace           obs.StmtTrace
	pendingTraceID  uint64
	pendingCacheHit bool
	pendingParse    time.Duration
}

// NewSession creates a session on db.
func NewSession(db *storage.Database) *Session { return &Session{db: db} }

// BeginTrace supplies the trace ID for the next statement this session
// executes. The wire server calls it with the client-minted ID from the
// request frame; statements without one mint their own.
func (s *Session) BeginTrace(id uint64) { s.pendingTraceID = id }

// Trace returns the trace record of the most recently executed statement
// (valid even when the statement returned an error).
func (s *Session) Trace() obs.StmtTrace { return s.trace }

// DB returns the underlying database.
func (s *Session) DB() *storage.Database { return s.db }

// InTx reports whether an explicit transaction is open.
func (s *Session) InTx() bool { return s.tx != nil }

// Reset aborts any open transaction (used when a connection is recycled).
func (s *Session) Reset() {
	if s.tx != nil {
		s.tx.Rollback()
		s.tx = nil
	}
}

// Exec parses and executes a single statement with the given arguments
// bound to `?` placeholders.
func (s *Session) Exec(sql string, args ...storage.Value) (*Result, error) {
	stmt, err := sqlfront.Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.ExecStmt(stmt, args)
}

// ExecStmt executes a parsed statement through a transient plan (no schema
// caching). Prepared execution goes through ExecutePrepared instead.
func (s *Session) ExecStmt(stmt sqlfront.Statement, args []storage.Value) (*Result, error) {
	return s.execPlan(&Prepared{stmt: stmt, nParams: sqlfront.CountPlaceholders(stmt)}, args)
}

// execPlan wraps runPlan with the statement's observability envelope: it
// stamps the trace (caller-minted ID or a fresh one), folds in the staged
// parse time and cache verdict, times the whole execution as the exec span,
// and records the per-kind throughput counter. The finished trace is copied
// into the result so it survives the trip back to the client.
func (s *Session) execPlan(p *Prepared, args []storage.Value) (*Result, error) {
	start := time.Now()
	id := s.pendingTraceID
	s.pendingTraceID = 0
	if id == 0 {
		id = obs.NewTraceID()
	}
	s.trace.Reset(id)
	s.trace.CacheHit = s.pendingCacheHit
	s.pendingCacheHit = false
	s.trace.Add(obs.SpanParse, s.pendingParse)
	s.pendingParse = 0

	res, err := s.runPlan(p, args)

	d := time.Since(start)
	s.trace.Add(obs.SpanExec, d)
	mStatementSeconds.Observe(d)
	stmtKindCounter(p.stmt).Inc()
	if res != nil {
		res.Trace = s.trace
	}
	return res, err
}

// runPlan executes a plan: transaction control and DDL dispatch directly;
// DML/query statements run through the plan's schema resolution inside the
// open transaction, or autocommit.
func (s *Session) runPlan(p *Prepared, args []storage.Value) (*Result, error) {
	if p.nParams > len(args) {
		return nil, fmt.Errorf("%w: %d placeholders, %d args", ErrUnboundPlaceholder, p.nParams, len(args))
	}
	switch t := p.stmt.(type) {
	case *sqlfront.BeginStmt:
		if s.tx != nil {
			return nil, ErrTxInProgress
		}
		if t.HasLevel {
			s.tx = s.db.Begin(t.Level)
		} else {
			s.tx = s.db.BeginDefault()
		}
		s.tx.SetTrace(&s.trace)
		return &Result{}, nil
	case *sqlfront.CommitStmt:
		if s.tx == nil {
			return nil, ErrNoActiveTx
		}
		err := s.tx.Commit()
		s.tx = nil
		return &Result{}, err
	case *sqlfront.RollbackStmt:
		if s.tx == nil {
			return nil, ErrNoActiveTx
		}
		s.tx.Rollback()
		s.tx = nil
		return &Result{}, nil
	case *sqlfront.CreateTableStmt:
		return s.execCreateTable(t)
	case *sqlfront.CreateIndexStmt:
		return &Result{}, s.db.AddIndex(t.Table, t.Column, t.Unique)
	case *sqlfront.DropTableStmt:
		return &Result{}, s.db.DropTable(t.Name)
	case *sqlfront.AlterTableAddFKStmt:
		return &Result{}, s.db.AddForeignKey(t.Table, t.Column, t.ParentTable, t.OnDelete)
	case *sqlfront.ShowTablesStmt:
		res := &Result{Columns: []string{"table"}}
		for _, sc := range s.db.Tables() {
			res.Rows = append(res.Rows, []storage.Value{storage.Str(sc.Name)})
		}
		return res, nil
	}

	// DML/query statements run in the open transaction, or autocommit.
	tx := s.tx
	auto := false
	if tx == nil {
		tx = s.db.BeginDefault()
		auto = true
	}
	// (Re)point the transaction at this statement's trace: for explicit
	// transactions the same Tx spans many statements, and each statement's
	// lock waits and (eventually) commit belong to the statement running it.
	tx.SetTrace(&s.trace)
	if !s.stmtDeadline.IsZero() {
		tx.SetStmtDeadline(s.stmtDeadline)
		defer tx.SetStmtDeadline(time.Time{})
	}
	var res *Result
	var err error
	switch t := p.stmt.(type) {
	case *sqlfront.SelectStmt:
		res, err = execSelect(tx, p, t, args)
	case *sqlfront.InsertStmt:
		res, err = execInsert(tx, t, args)
	case *sqlfront.UpdateStmt:
		res, err = execUpdate(tx, p, t, args)
	case *sqlfront.DeleteStmt:
		res, err = execDelete(tx, p, t, args)
	default:
		err = fmt.Errorf("sqlexec: unhandled statement %T", p.stmt)
	}
	if auto {
		if err != nil {
			tx.Rollback()
			return nil, err
		}
		if cerr := tx.Commit(); cerr != nil {
			return nil, cerr
		}
		return res, nil
	}
	if err != nil {
		// Statement errors inside an explicit transaction abort it, as
		// PostgreSQL does.
		s.tx.Rollback()
		s.tx = nil
	}
	return res, err
}

func (s *Session) execCreateTable(t *sqlfront.CreateTableStmt) (*Result, error) {
	schema := &storage.Schema{Name: t.Name}
	for _, cd := range t.Columns {
		col := storage.Column{
			Name:       cd.Name,
			Kind:       cd.Kind,
			NotNull:    cd.NotNull,
			PrimaryKey: cd.PrimaryKey,
		}
		if cd.Default != nil {
			v, ok := cd.Default.Value.CoerceTo(cd.Kind)
			if !ok {
				return nil, fmt.Errorf("sqlexec: DEFAULT for %s.%s has wrong type", t.Name, cd.Name)
			}
			col.Default = v
		}
		schema.Columns = append(schema.Columns, col)
		if cd.Unique && !cd.PrimaryKey {
			schema.Indexes = append(schema.Indexes, storage.IndexSpec{Column: cd.Name, Unique: true})
		}
		if cd.References != nil {
			schema.ForeignKeys = append(schema.ForeignKeys, storage.ForeignKey{
				Column:      cd.Name,
				ParentTable: cd.References.ParentTable,
				OnDelete:    cd.References.OnDelete,
			})
			schema.Indexes = append(schema.Indexes, storage.IndexSpec{Column: cd.Name})
		}
	}
	return &Result{}, s.db.CreateTable(schema)
}

func execInsert(tx *storage.Tx, t *sqlfront.InsertStmt, args []storage.Value) (*Result, error) {
	res := &Result{}
	scratch := &env{args: args}
	for _, row := range t.Rows {
		cols := make(map[string]storage.Value, len(t.Columns))
		for i, e := range row {
			v, err := scratch.eval(e)
			if err != nil {
				return nil, err
			}
			cols[t.Columns[i]] = v
		}
		_, pk, err := tx.Insert(t.Table, cols)
		if err != nil {
			return nil, err
		}
		res.RowsAffected++
		res.LastInsertID = pk
	}
	return res, nil
}

// matchedRow is a row located by a WHERE scan, retained for UPDATE/DELETE.
type matchedRow struct {
	id   storage.RowID
	vals []storage.Value
}

// scanWhere scans table rows matching where, using an index-backed equality
// pushdown when one of the top-level AND conjuncts is `col = constant`.
func scanWhere(tx *storage.Tx, p *Prepared, tableName string, schema *storage.Schema,
	where sqlfront.Expr, args []storage.Value) ([]matchedRow, error) {

	filter, err := pushdownFilter(schema, "", where, args)
	if err != nil {
		return nil, err
	}
	var out []matchedRow
	var evalErr error
	e := &env{bindings: []binding{{name: strings.ToLower(tableName), schema: schema}}, args: args, cols: p.cols}
	scanErr := tx.Scan(tableName, storage.ScanOptions{Filter: filter},
		func(id storage.RowID, vals []storage.Value) bool {
			if where != nil {
				e.bindings[0].rowID, e.bindings[0].vals = id, vals
				v, err := e.eval(where)
				if err != nil {
					evalErr = err
					return false
				}
				if !truthy(v) {
					return true
				}
			}
			out = append(out, matchedRow{id: id, vals: vals})
			return true
		})
	if scanErr != nil {
		return nil, scanErr
	}
	return out, evalErr
}

// pushdownFilter extracts one `col = constant` conjunct resolvable against
// the given table (optionally via alias) for index-accelerated scanning.
func pushdownFilter(schema *storage.Schema, alias string, where sqlfront.Expr,
	args []storage.Value) (*storage.EqFilter, error) {

	var find func(e sqlfront.Expr) (*storage.EqFilter, error)
	constVal := func(e sqlfront.Expr) (storage.Value, bool, error) {
		switch t := e.(type) {
		case *sqlfront.Literal:
			return t.Value, true, nil
		case *sqlfront.Placeholder:
			if t.Index >= len(args) {
				return storage.Value{}, false, ErrUnboundPlaceholder
			}
			return args[t.Index], true, nil
		default:
			return storage.Value{}, false, nil
		}
	}
	columnOf := func(e sqlfront.Expr) (string, bool) {
		ref, ok := e.(*sqlfront.ColumnRef)
		if !ok {
			return "", false
		}
		if ref.Table != "" && !strings.EqualFold(ref.Table, schema.Name) &&
			!strings.EqualFold(ref.Table, alias) {
			return "", false
		}
		if schema.ColumnIndex(ref.Column) < 0 {
			return "", false
		}
		return ref.Column, true
	}
	find = func(e sqlfront.Expr) (*storage.EqFilter, error) {
		be, ok := e.(*sqlfront.BinaryExpr)
		if !ok {
			return nil, nil
		}
		switch be.Op {
		case "AND":
			if f, err := find(be.Left); f != nil || err != nil {
				return f, err
			}
			return find(be.Right)
		case "=":
			if col, ok := columnOf(be.Left); ok {
				if v, isConst, err := constVal(be.Right); err != nil {
					return nil, err
				} else if isConst && !v.IsNull() {
					return &storage.EqFilter{Column: col, Value: v}, nil
				}
			}
			if col, ok := columnOf(be.Right); ok {
				if v, isConst, err := constVal(be.Left); err != nil {
					return nil, err
				} else if isConst && !v.IsNull() {
					return &storage.EqFilter{Column: col, Value: v}, nil
				}
			}
		}
		return nil, nil
	}
	if where == nil {
		return nil, nil
	}
	return find(where)
}

func execUpdate(tx *storage.Tx, p *Prepared, t *sqlfront.UpdateStmt, args []storage.Value) (*Result, error) {
	sc, err := p.schemaFor(tx, t.Table)
	if err != nil {
		return nil, err
	}
	rows, err := scanWhere(tx, p, t.Table, sc, t.Where, args)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	for _, row := range rows {
		changes := make(map[string]storage.Value, len(t.Set))
		e := &env{
			bindings: []binding{{name: strings.ToLower(t.Table), schema: sc, rowID: row.id, vals: row.vals}},
			args:     args,
			cols:     p.cols,
		}
		for _, set := range t.Set {
			v, err := e.eval(set.Value)
			if err != nil {
				return nil, err
			}
			changes[set.Column] = v
		}
		if err := tx.Update(t.Table, row.id, changes); err != nil {
			return nil, err
		}
		res.RowsAffected++
	}
	return res, nil
}

func execDelete(tx *storage.Tx, p *Prepared, t *sqlfront.DeleteStmt, args []storage.Value) (*Result, error) {
	sc, err := p.schemaFor(tx, t.Table)
	if err != nil {
		return nil, err
	}
	rows, err := scanWhere(tx, p, t.Table, sc, t.Where, args)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	for _, row := range rows {
		if err := tx.Delete(t.Table, row.id); err != nil {
			return nil, err
		}
		res.RowsAffected++
	}
	return res, nil
}

// joinProbe inspects an ON condition for a top-level conjunct of the form
// `joined.col = expr` (or reversed) where col belongs to the joined table
// (addressed by its alias) and expr does not reference it. Returns the
// probe column and the expression to evaluate against each left row, or "".
func joinProbe(joinSchema *storage.Schema, joinName string, on sqlfront.Expr) (string, sqlfront.Expr) {
	var find func(e sqlfront.Expr) (string, sqlfront.Expr)
	isJoinCol := func(e sqlfront.Expr) (string, bool) {
		ref, ok := e.(*sqlfront.ColumnRef)
		if !ok || ref.Table == "" || !strings.EqualFold(ref.Table, joinName) {
			return "", false
		}
		if joinSchema.ColumnIndex(ref.Column) < 0 {
			return "", false
		}
		return ref.Column, true
	}
	referencesJoin := func(e sqlfront.Expr) bool {
		found := false
		var walk func(sqlfront.Expr)
		walk = func(x sqlfront.Expr) {
			if x == nil || found {
				return
			}
			switch t := x.(type) {
			case *sqlfront.ColumnRef:
				if strings.EqualFold(t.Table, joinName) ||
					(t.Table == "" && joinSchema.ColumnIndex(t.Column) >= 0) {
					found = true
				}
			case *sqlfront.BinaryExpr:
				walk(t.Left)
				walk(t.Right)
			case *sqlfront.UnaryExpr:
				walk(t.Operand)
			case *sqlfront.IsNullExpr:
				walk(t.Operand)
			case *sqlfront.FuncExpr:
				walk(t.Arg)
			}
		}
		walk(e)
		return found
	}
	find = func(e sqlfront.Expr) (string, sqlfront.Expr) {
		be, ok := e.(*sqlfront.BinaryExpr)
		if !ok {
			return "", nil
		}
		switch be.Op {
		case "AND":
			if col, probe := find(be.Left); col != "" {
				return col, probe
			}
			return find(be.Right)
		case "=":
			if col, ok := isJoinCol(be.Left); ok && !referencesJoin(be.Right) {
				return col, be.Right
			}
			if col, ok := isJoinCol(be.Right); ok && !referencesJoin(be.Left) {
				return col, be.Left
			}
		}
		return "", nil
	}
	return find(on)
}

// --- SELECT ------------------------------------------------------------------

func execSelect(tx *storage.Tx, p *Prepared, t *sqlfront.SelectStmt, args []storage.Value) (*Result, error) {
	baseSchema, err := p.schemaFor(tx, t.From.Name)
	if err != nil {
		return nil, err
	}
	baseName := bindingName(t.From)
	offset, limit, err := selectWindow(t, args)
	if err != nil {
		return nil, err
	}
	filter, err := pushdownFilter(baseSchema, t.From.Alias, t.Where, args)
	if err != nil {
		return nil, err
	}
	scanOpts := storage.ScanOptions{Filter: filter, ForUpdate: t.ForUpdate}
	res := &Result{Columns: projectionColumns(t, baseSchema)}

	hasAgg := containsAggregate(t.Having)
	for _, it := range t.Items {
		if containsAggregate(it.Expr) {
			hasAgg = true
		}
	}

	// A single-table query that neither groups nor orders streams: WHERE,
	// OFFSET, projection and LIMIT run inside the scan callback against one
	// reused environment, and the scan stops as soon as LIMIT is satisfied.
	if len(t.Joins) == 0 && len(t.GroupBy) == 0 && len(t.OrderBy) == 0 && !hasAgg && t.Having == nil {
		row := &env{bindings: []binding{{name: baseName, schema: baseSchema}}, args: args, cols: p.cols}
		var evalErr error
		scanErr := tx.Scan(t.From.Name, scanOpts, func(id storage.RowID, vals []storage.Value) bool {
			if limit == 0 {
				return false
			}
			row.bindings[0].rowID, row.bindings[0].vals = id, vals
			if t.Where != nil {
				v, err := row.eval(t.Where)
				if err != nil {
					evalErr = err
					return false
				}
				if !truthy(v) {
					return true
				}
			}
			if offset > 0 {
				offset--
				return true
			}
			out, err := projectRow(t, row)
			if err != nil {
				evalErr = err
				return false
			}
			res.Rows = append(res.Rows, out)
			return limit < 0 || len(res.Rows) < limit
		})
		if scanErr != nil {
			return nil, scanErr
		}
		return res, evalErr
	}

	// 1. Base scan with WHERE pushdown (FOR UPDATE locks base rows).
	var rows []*env
	var evalErr error
	scanErr := tx.Scan(t.From.Name, scanOpts, func(id storage.RowID, vals []storage.Value) bool {
		rows = append(rows, &env{
			bindings: []binding{{name: baseName, schema: baseSchema, rowID: id, vals: vals}},
			args:     args,
			cols:     p.cols,
		})
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}

	// 2. Joins (nested loop, with an index-backed equality probe when the ON
	// condition contains `joined.col = <expr over left row>` — which covers
	// the appendix's orphan query, `U.department_id = D.id`).
	for _, join := range t.Joins {
		joinSchema, err := p.schemaFor(tx, join.Table.Name)
		if err != nil {
			return nil, err
		}
		joinName := bindingName(join.Table)
		probeCol, probeExpr := joinProbe(joinSchema, joinName, join.On)
		var joined []*env
		for _, left := range rows {
			var filter *storage.EqFilter
			if probeCol != "" {
				v, err := left.eval(probeExpr)
				if err == nil && !v.IsNull() {
					filter = &storage.EqFilter{Column: probeCol, Value: v}
				}
			}
			matched := false
			err := tx.Scan(join.Table.Name, storage.ScanOptions{Filter: filter},
				func(id storage.RowID, vals []storage.Value) bool {
					probe := &env{
						bindings: append(append([]binding(nil), left.bindings...),
							binding{name: joinName, schema: joinSchema, rowID: id, vals: vals}),
						args: args,
					}
					v, err := probe.eval(join.On)
					if err != nil {
						evalErr = err
						return false
					}
					if truthy(v) {
						matched = true
						joined = append(joined, probe)
					}
					return true
				})
			if err != nil {
				return nil, err
			}
			if evalErr != nil {
				return nil, evalErr
			}
			if !matched && join.Kind == sqlfront.LeftOuterJoin {
				joined = append(joined, &env{
					bindings: append(append([]binding(nil), left.bindings...),
						binding{name: joinName, schema: joinSchema, vals: nil}),
					args: args,
				})
			}
		}
		rows = joined
	}

	// 3. WHERE.
	if t.Where != nil {
		kept := rows[:0]
		for _, r := range rows {
			v, err := r.eval(t.Where)
			if err != nil {
				return nil, err
			}
			if truthy(v) {
				kept = append(kept, r)
			}
		}
		rows = kept
	}

	// 4. Grouping & aggregation (aggregate applies HAVING itself).
	if len(t.GroupBy) > 0 || hasAgg {
		rows, err = aggregate(t, rows, args)
		if err != nil {
			return nil, err
		}
	}

	// 5. Projection.
	type sortableRow struct {
		out  []storage.Value
		keys []storage.Value
	}
	sortable := make([]sortableRow, 0, len(rows))
	for _, r := range rows {
		out, err := projectRow(t, r)
		if err != nil {
			return nil, err
		}
		var keys []storage.Value
		for _, o := range t.OrderBy {
			kv, err := r.eval(o.Expr)
			if err != nil {
				return nil, err
			}
			keys = append(keys, kv)
		}
		sortable = append(sortable, sortableRow{out: out, keys: keys})
	}

	// 6. ORDER BY.
	if len(t.OrderBy) > 0 {
		sort.SliceStable(sortable, func(i, j int) bool {
			for k, o := range t.OrderBy {
				c, _ := storage.Compare(sortable[i].keys[k], sortable[j].keys[k])
				if c == 0 {
					continue
				}
				if o.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}

	// 7. OFFSET / LIMIT.
	sortable = sortable[min(offset, len(sortable)):]
	if limit >= 0 && limit < len(sortable) {
		sortable = sortable[:limit]
	}
	for _, sr := range sortable {
		res.Rows = append(res.Rows, sr.out)
	}
	return res, nil
}

// selectWindow evaluates a SELECT's OFFSET and LIMIT clauses. limit is -1
// when the statement has none; a clause that is not an integer is ignored.
func selectWindow(t *sqlfront.SelectStmt, args []storage.Value) (offset, limit int, err error) {
	clause := func(name string, x sqlfront.Expr, absent int) (int, error) {
		if x == nil {
			return absent, nil
		}
		v, err := (&env{args: args}).eval(x)
		if err != nil || v.Kind != storage.KindInt {
			return absent, err
		}
		if v.I < 0 {
			return 0, fmt.Errorf("sqlexec: %s must not be negative", name)
		}
		return int(v.I), nil
	}
	if offset, err = clause("OFFSET", t.Offset, 0); err != nil {
		return 0, 0, err
	}
	limit, err = clause("LIMIT", t.Limit, -1)
	return offset, limit, err
}

// aggregate groups rows and evaluates aggregates, returning one synthetic
// env per surviving group (first-row bindings plus an aggregate table).
func aggregate(t *sqlfront.SelectStmt, rows []*env, args []storage.Value) ([]*env, error) {
	aggExprs := make(map[string]*sqlfront.FuncExpr)
	for _, it := range t.Items {
		collectAggregates(it.Expr, aggExprs)
	}
	collectAggregates(t.Having, aggExprs)

	type group struct {
		first *env
		rows  []*env
	}
	groups := make(map[string]*group)
	var order []string
	for _, r := range rows {
		var keyParts []string
		for _, g := range t.GroupBy {
			v, err := r.eval(g)
			if err != nil {
				return nil, err
			}
			keyParts = append(keyParts, v.Key())
		}
		key := strings.Join(keyParts, "\x00")
		grp := groups[key]
		if grp == nil {
			grp = &group{first: r}
			groups[key] = grp
			order = append(order, key)
		}
		grp.rows = append(grp.rows, r)
	}
	// A non-grouped aggregate query over zero rows still yields one group.
	if len(t.GroupBy) == 0 && len(order) == 0 {
		groups[""] = &group{first: &env{args: args}}
		order = append(order, "")
	}

	var out []*env
	for _, key := range order {
		grp := groups[key]
		aggs := make(map[string]storage.Value, len(aggExprs))
		for rendered, fe := range aggExprs {
			v, err := evalAggregate(fe, grp.rows)
			if err != nil {
				return nil, err
			}
			aggs[rendered] = v
		}
		genv := &env{bindings: grp.first.bindings, args: args, aggs: aggs}
		if t.Having != nil {
			v, err := genv.eval(t.Having)
			if err != nil {
				return nil, err
			}
			if !truthy(v) {
				continue
			}
		}
		out = append(out, genv)
	}
	return out, nil
}

func evalAggregate(fe *sqlfront.FuncExpr, rows []*env) (storage.Value, error) {
	var vals []storage.Value
	for _, r := range rows {
		if _, ok := fe.Arg.(*sqlfront.Star); ok {
			vals = append(vals, storage.Int(1))
			continue
		}
		v, err := r.eval(fe.Arg)
		if err != nil {
			return storage.Value{}, err
		}
		if v.IsNull() {
			continue // SQL aggregates skip NULLs
		}
		vals = append(vals, v)
	}
	if fe.Distinct {
		seen := make(map[string]bool, len(vals))
		kept := vals[:0]
		for _, v := range vals {
			if !seen[v.Key()] {
				seen[v.Key()] = true
				kept = append(kept, v)
			}
		}
		vals = kept
	}
	switch fe.Name {
	case "COUNT":
		return storage.Int(int64(len(vals))), nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return storage.Null(), nil
		}
		allInt := true
		var fsum float64
		var isum int64
		for _, v := range vals {
			f, ok := numericOf(v)
			if !ok {
				return storage.Value{}, fmt.Errorf("sqlexec: %s over non-numeric value", fe.Name)
			}
			fsum += f
			if v.Kind == storage.KindInt {
				isum += v.I
			} else {
				allInt = false
			}
		}
		if fe.Name == "AVG" {
			return storage.Float(fsum / float64(len(vals))), nil
		}
		if allInt {
			return storage.Int(isum), nil
		}
		return storage.Float(fsum), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return storage.Null(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, ok := storage.Compare(v, best)
			if !ok {
				return storage.Value{}, fmt.Errorf("sqlexec: %s over incomparable values", fe.Name)
			}
			if (fe.Name == "MIN" && c < 0) || (fe.Name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	default:
		return storage.Value{}, fmt.Errorf("sqlexec: unknown aggregate %s", fe.Name)
	}
}

// projectionColumns derives output column names.
func projectionColumns(t *sqlfront.SelectStmt, baseSchema *storage.Schema) []string {
	var cols []string
	for _, it := range t.Items {
		switch e := it.Expr.(type) {
		case *sqlfront.Star:
			// Expanded at projection time; names come from all bindings,
			// which we approximate with the base schema plus join markers.
			for _, c := range baseSchema.Columns {
				cols = append(cols, c.Name)
			}
			continue
		case *sqlfront.ColumnRef:
			if it.Alias != "" {
				cols = append(cols, it.Alias)
			} else {
				cols = append(cols, e.Column)
			}
			continue
		}
		if it.Alias != "" {
			cols = append(cols, it.Alias)
		} else {
			cols = append(cols, renderExpr(it.Expr))
		}
	}
	return cols
}

// projectRow evaluates the projection for one row env into a row sized once
// from the projection's width, stars expanded.
func projectRow(t *sqlfront.SelectStmt, r *env) ([]storage.Value, error) {
	width := 0
	for _, it := range t.Items {
		if _, ok := it.Expr.(*sqlfront.Star); !ok {
			width++
			continue
		}
		for _, b := range r.bindings {
			width += len(b.schema.Columns)
		}
	}
	out := make([]storage.Value, 0, width)
	for _, it := range t.Items {
		if _, ok := it.Expr.(*sqlfront.Star); ok {
			for _, b := range r.bindings {
				for i := range b.schema.Columns {
					if b.vals == nil {
						out = append(out, storage.Null())
					} else {
						out = append(out, b.vals[i])
					}
				}
			}
			continue
		}
		v, err := r.eval(it.Expr)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
