package experiment

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"feralcc/internal/storage"
)

// ParseHuntWorkload reads a workload written in the hunt DSL, the line-based
// format of every hunt workload: the built-in catalog (HuntWorkloads) is
// written in it, and feralhunt -dsl runs custom files without recompiling
// anything. One file declares tables, seed rows, invariants and tasks; each
// task is one transaction template executed by one scheduler task.
//
//	# lost update, spelled out
//	table accounts id:int:pk balance:int
//	row accounts balance=100
//	task
//	  read accounts 1 balance
//	  add accounts 1 balance 10
//	task
//	  read accounts 1 balance
//	  add accounts 1 balance 25
//
// Statements:
//
//	table <name> <col>:<kind>[:<flag>]... ...
//	                                      kinds: int, string; flags: pk (the
//	                                      row id column), unique (an
//	                                      in-database unique index), ref=<t>
//	                                      (an in-database foreign key to
//	                                      earlier-declared table t's row id,
//	                                      ON DELETE CASCADE)
//	row <table> [<col>=<value> ...]       seed row, inserted at setup
//	lock-queue-bound <n>                  engine lock-wait queue bound: 0 =
//	                                      unbounded (default), n>0 = at most n
//	                                      waiters per lock, -1 = no waiting
//	                                      (conflicts shed with ErrOverloaded)
//	invariant unique <table> <col>        no two rows share a value of col
//	invariant no-orphans <child> <fkcol> <parent>
//	                                      every non-NULL fkcol is the row id
//	                                      of a live parent row
//	invariant one-of <table> <rowid> <col> <value> ...
//	                                      the row's col holds one of the values
//	task [autocommit]                     starts the next transaction
//	                                      template; with autocommit each op
//	                                      commits as its own transaction (an
//	                                      insert-unless's probe and insert are
//	                                      two), and a refusal stops the task
//	  read <table> <rowid> <col>          Get; remembers the value under
//	                                      (table, rowid, col); an absent row
//	                                      refuses the task
//	  add <table> <rowid> <col> <delta>   Update col = the value this task read
//	                                      for (table, rowid, col) + delta
//	  set <table> <rowid> <col> <value>   Update col = value
//	  guard-sum <min>                     refuses unless the values read so far
//	                                      sum to at least min
//	  absent <table> <col>=<value>        filtered scan; any hit refuses
//	  insert <table> <col>=<value> ...    unconditional insert
//	  insert-unless <table> <col>=<value> ...
//	                                      feral validation: absent on the first
//	                                      column written, then insert
//	  delete <table> <rowid>
//
// A refusal rolls the task back with no error: the workload's own validation
// said no. Otherwise every task commits after its last op, and engine aborts
// (a unique index or foreign key refusing the commit among them) surface as
// that task's outcome. After the tasks finish, the invariants are
// checked in order against the committed state; the first complaint is the
// run's InvariantViolation. Values parse as int64 first, strings otherwise.
// Row ids are the engine's dense allocation order, starting at 1 per table:
// the Nth row statement for a table seeds its row N. Every table and column
// an op or invariant names must be declared by an earlier table statement,
// and add needs an earlier read of its cell in the same task; violations are
// rejected with their line number, as are fewer than two tasks.
func ParseHuntWorkload(r io.Reader, name string) (HuntWorkload, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return HuntWorkload{}, err
	}
	w := HuntWorkload{Name: name, Description: "custom DSL workload", Source: string(raw)}
	reads := map[huntCell]bool{} // the cells the current task has read
	for i, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if err := w.parseStatement(f, reads); err != nil {
			return HuntWorkload{}, fmt.Errorf("dsl line %d: %v", i+1, err)
		}
	}
	if len(w.Tasks) < 2 {
		return HuntWorkload{}, fmt.Errorf("dsl: need at least 2 tasks for a concurrency hunt, got %d", len(w.Tasks))
	}
	return w, nil
}

// huntOps and huntInvariants give each task op's and invariant's arguments
// in the doc comment's notation; bind parses a statement against them. A
// trailing "..." repeats the last placeholder zero or more times.
var (
	huntOps = map[string]string{
		"read":          "<table> <rowid> <col>",
		"add":           "<table> <rowid> <col> <n>",
		"set":           "<table> <rowid> <col> <value>",
		"guard-sum":     "<n>",
		"absent":        "<table> <col>=<value>",
		"insert":        "<table> <col>=<value>...",
		"insert-unless": "<table> <col>=<value>...",
		"delete":        "<table> <rowid>",
	}
	huntInvariants = map[string]string{
		"unique":     "<table> <col>",
		"no-orphans": "<table> <col> <parent>",
		"one-of":     "<table> <rowid> <col> <value>...",
	}
)

// parseStatement applies one non-comment line to w.
func (w *HuntWorkload) parseStatement(f []string, reads map[huntCell]bool) error {
	switch f[0] {
	case "table":
		if len(f) < 3 {
			return errors.New("table needs a name and at least one column")
		}
		s := &storage.Schema{Name: f[1]}
		for _, spec := range f[2:] {
			parts := strings.Split(spec, ":")
			if len(parts) < 2 {
				return fmt.Errorf("column %q: want name:kind[:flag]...", spec)
			}
			kind, ok := map[string]storage.Kind{"int": storage.KindInt, "string": storage.KindString}[parts[1]]
			if !ok {
				return fmt.Errorf("column %q: unknown kind %q", spec, parts[1])
			}
			col := storage.Column{Name: parts[0], Kind: kind}
			for _, flag := range parts[2:] {
				parent, isRef := strings.CutPrefix(flag, "ref=")
				switch {
				case flag == "pk":
					col.PrimaryKey = true
				case flag == "unique":
					s.Indexes = append(s.Indexes, storage.IndexSpec{Column: col.Name, Unique: true})
				case isRef:
					table, err := w.resolve(parent, "")
					if err == nil && w.schema(table).PrimaryKey() == "" {
						err = fmt.Errorf("table %s has no pk column", table)
					}
					if err != nil {
						return fmt.Errorf("column %q: %v", spec, err)
					}
					s.ForeignKeys = append(s.ForeignKeys, storage.ForeignKey{Column: col.Name, ParentTable: table, OnDelete: storage.Cascade})
				default:
					return fmt.Errorf("column %q: unknown flag %q", spec, flag)
				}
			}
			s.Columns = append(s.Columns, col)
		}
		w.Tables = append(w.Tables, s)
	case "row":
		op, err := w.bind(f, huntOps["insert"])
		op.Verb = "insert"
		w.Seed = append(w.Seed, op)
		return err
	case "lock-queue-bound":
		op, err := w.bind(f, "<n>")
		w.LockQueueBound = int(op.N)
		return err
	case "invariant":
		if len(f) < 2 || huntInvariants[f[1]] == "" {
			return errors.New("want invariant unique|no-orphans|one-of ...")
		}
		op, err := w.bind(f[1:], huntInvariants[f[1]])
		w.Invariants = append(w.Invariants, op)
		return err
	case "task":
		if len(f) > 2 || len(f) == 2 && f[1] != "autocommit" {
			return errors.New("want task [autocommit]")
		}
		w.Tasks = append(w.Tasks, nil)
		w.Autocommit = append(w.Autocommit, len(f) == 2)
		clear(reads)
	default:
		if huntOps[f[0]] == "" {
			return fmt.Errorf("unknown statement %q", f[0])
		}
		if len(w.Tasks) == 0 {
			return fmt.Errorf("%q before any task", f[0])
		}
		op, err := w.bind(f, huntOps[f[0]])
		if err != nil {
			return err
		}
		cell := huntCell{op.Table, op.Row, op.Col}
		ops := []HuntOp{op}
		switch op.Verb {
		case "read":
			reads[cell] = true
		case "add":
			if !reads[cell] {
				return fmt.Errorf("add %s %d %s: no earlier read of that cell in this task", op.Table, op.Row, op.Col)
			}
		case "insert-unless": // feral validation probes the first column written
			if len(op.Cols) == 0 {
				return errors.New("insert-unless needs a column to probe")
			}
			probe := HuntOp{Verb: "absent", Table: op.Table, Cols: op.Cols[:1], Values: op.Values[:1]}
			op.Verb = "insert"
			ops = []HuntOp{probe, op}
		}
		t := len(w.Tasks) - 1
		w.Tasks[t] = append(w.Tasks[t], ops...)
	}
	return nil
}

// bind parses the arguments f[1:] of statement f[0] against syntax,
// resolving table and column names against the declared tables.
func (w *HuntWorkload) bind(f []string, syntax string) (HuntOp, error) {
	op := HuntOp{Verb: f[0]}
	slots, args := strings.Fields(syntax), f[1:]
	repeat, need := strings.HasSuffix(syntax, "..."), len(slots)
	if repeat {
		need--
	}
	if len(args) < need || len(args) > len(slots) && !repeat {
		return op, fmt.Errorf("want %s %s", f[0], syntax)
	}
	for i, arg := range args {
		var err error
		slot := strings.TrimSuffix(slots[min(i, len(slots)-1)], "...")
		switch slot {
		case "<table>":
			op.Table, err = w.resolve(arg, "")
		case "<parent>":
			op.Parent, err = w.resolve(arg, "")
		case "<col>":
			op.Col, err = w.resolve(op.Table, arg)
		case "<rowid>":
			var id uint64
			id, err = strconv.ParseUint(arg, 10, 64)
			op.Row = storage.RowID(id)
		case "<n>":
			op.N, err = strconv.ParseInt(arg, 10, 64)
		case "<value>":
			op.Values = append(op.Values, huntValue(arg))
		case "<col>=<value>":
			col, raw, ok := strings.Cut(arg, "=")
			if !ok || col == "" {
				return op, fmt.Errorf("want col=value, got %q", arg)
			}
			col, err = w.resolve(op.Table, col)
			op.Cols = append(op.Cols, col)
			op.Values = append(op.Values, huntValue(raw))
		}
		if errors.Is(err, strconv.ErrSyntax) || errors.Is(err, strconv.ErrRange) {
			return op, fmt.Errorf("%s: bad %s %q", f[0], slot, arg)
		}
		if err != nil {
			return op, err
		}
	}
	return op, nil
}

// resolve returns the declared spelling of table or, when col is given, of
// table's column col.
func (w *HuntWorkload) resolve(table, col string) (string, error) {
	s := w.schema(table)
	switch {
	case s == nil:
		return "", fmt.Errorf("undeclared table %q", table)
	case col == "":
		return s.Name, nil
	case s.Column(col) == nil:
		return "", fmt.Errorf("table %s has no column %q", s.Name, col)
	}
	return s.Column(col).Name, nil
}

// huntValue parses a DSL value: an int64 when it parses as one, else a string.
func huntValue(raw string) storage.Value {
	if n, err := strconv.ParseInt(raw, 10, 64); err == nil {
		return storage.Int(n)
	}
	return storage.Str(raw)
}
