package experiment

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"feralcc/internal/histcheck"
	"feralcc/internal/sched"
	"feralcc/internal/storage"
)

// This file is the bridge between the deterministic scheduler and the paper's
// workloads: each HuntWorkload is a minimal concurrent shape of one feral
// integrity pattern (Figures 2-5 reduced to their two- or three-transaction
// essence), and RunHuntSchedule executes it under a sched.Schedule with
// history recording on, returning everything the directed hunter needs — the
// history, its Adya report, and the tx-id-to-task mapping that turns
// almost-cycles into Delay directives for the next run.

// HuntWorkload is a named concurrent workload for the anomaly hunter. It is
// data, not code — ParseHuntWorkload builds one from the workload DSL, the
// built-in catalog included — so every workload runs through one
// interpreter and can be inspected op by op.
type HuntWorkload struct {
	Name        string
	Description string
	// Source is the DSL text the workload was parsed from.
	Source string
	// Tables are created at setup; Seed holds the seed rows as insert ops,
	// run as one unscheduled transaction whose history is discarded.
	Tables []*storage.Schema
	Seed   []HuntOp
	// Tasks holds one transaction template per scheduler task, in task-index
	// order of the schedule's priority vector.
	Tasks [][]HuntOp
	// Autocommit has one entry per task: true when each of the task's ops
	// commits as its own transaction (an ORM that wraps nothing in one).
	Autocommit []bool
	// Invariants (verbs unique, no-orphans, one-of) check the
	// application-level integrity condition after all tasks finish
	// (duplicate keys, orphaned children, leaked writes). Predicate-only
	// workloads need them: a feral validation race materializes as corrupt
	// final state even when the item-level serialization graph stays acyclic.
	Invariants []HuntOp
	// LockQueueBound, when nonzero, is the engine's storage.Options
	// LockQueueBound for the run (-1 sheds every lock conflict).
	LockQueueBound int
}

// HuntOp is one step of a transaction template or one invariant; the
// ParseHuntWorkload doc comment defines each verb and the fields it uses.
type HuntOp struct {
	Verb   string
	Table  string
	Row    storage.RowID
	Col    string
	Parent string // no-orphans' parent table
	N      int64  // add's delta, guard-sum's minimum
	// Cols and Values are insert's and absent's col=value pairs in the order
	// written; set and one-of keep their values in Values alone.
	Cols   []string
	Values []storage.Value
}

// HuntResult is one scheduled execution of a workload.
type HuntResult struct {
	Events []histcheck.Event
	Report *histcheck.Report
	// TxTask maps transaction ids in Events to the task index that ran them;
	// an autocommit task maps every transaction it ran.
	TxTask map[uint64]int
	// TaskErrs holds each task's transaction outcome (nil = committed).
	TaskErrs []error
	// InvariantViolation is the first invariant's complaint, or "".
	InvariantViolation string
	// Decisions is the number of scheduling decisions the run consumed — the
	// step-count input for sizing random schedules.
	Decisions uint64
}

// Anomalies returns the anomaly classes present in the run: the report's
// classes plus a synthetic "invariant" marker when the final-state check
// failed.
func (r *HuntResult) Anomalies() []string {
	var out []string
	for _, a := range r.Report.Classes() {
		out = append(out, string(a))
	}
	if r.InvariantViolation != "" {
		out = append(out, "invariant")
	}
	sort.Strings(out)
	return out
}

// RunHuntSchedule executes workload w at level under schedule sc.
func RunHuntSchedule(w HuntWorkload, level storage.IsolationLevel, sc sched.Schedule) (*HuntResult, error) {
	res, _, err := runHunt(w, level, &sc, storage.Options{})
	return res, err
}

// RunHuntStress executes workload w once with NO scheduler: tasks race as
// plain goroutines released together, the way the stress census runs. This is
// the hunter's baseline — how often wall-clock nondeterminism stumbles into
// the anomaly that a directed schedule forces — so feralhunt -baseline can
// report the comparison.
func RunHuntStress(w HuntWorkload, level storage.IsolationLevel) (*HuntResult, error) {
	res, _, err := runHunt(w, level, nil, storage.Options{})
	return res, err
}

// runHunt is one hunt execution: open an engine with opts (plus the level,
// history recording and the workload's queue bound), run setup and discard
// its history, run one body per task — under a scheduler following *sc, or,
// with sc nil, as free goroutines released together with a short lock
// timeout — then check the recorded history and the workload's invariants.
// It returns the closed database too, so callers that attached a live
// watcher through opts can read its final state.
func runHunt(w HuntWorkload, level storage.IsolationLevel, sc *sched.Schedule, opts storage.Options) (*HuntResult, *storage.Database, error) {
	var s *sched.Scheduler
	if sc != nil {
		s = sched.New(len(w.Tasks), *sc)
		opts.Yielder = s
	} else {
		opts.LockTimeout = 50 * time.Millisecond
	}
	opts.DefaultIsolation = level
	opts.RecordHistory = true
	if w.LockQueueBound != 0 {
		opts.LockQueueBound = w.LockQueueBound
	}
	db := storage.Open(opts)
	defer db.Close()
	if err := w.setup(db); err != nil {
		return nil, nil, fmt.Errorf("experiment: hunt setup %s: %w", w.Name, err)
	}
	db.ResetHistory()

	res := &HuntResult{
		TxTask:   make(map[uint64]int, len(w.Tasks)),
		TaskErrs: make([]error, len(w.Tasks)),
	}
	// Free-running bodies need the mutex; under the scheduler it is never
	// contended, the baton already serializing task code between yield points.
	var mu sync.Mutex
	bodies := make([]func(), len(w.Tasks))
	for i, ops := range w.Tasks {
		txs := [][]HuntOp{ops}
		if w.Autocommit[i] {
			txs = nil
			for j := range ops {
				txs = append(txs, ops[j:j+1])
			}
		}
		bodies[i] = func() {
			read := map[huntCell]int64{}
			for _, tx := range txs {
				id, refused, err := w.exec(db, level, tx, read)
				mu.Lock()
				if id != 0 {
					res.TxTask[id] = i
				}
				res.TaskErrs[i] = err
				mu.Unlock()
				if refused != "" || err != nil {
					return
				}
			}
		}
	}
	if s != nil {
		s.Run(bodies...)
		res.Decisions = s.Decisions()
	} else {
		var wg sync.WaitGroup
		start := make(chan struct{})
		for _, body := range bodies {
			wg.Add(1)
			go func() { defer wg.Done(); <-start; body() }()
		}
		close(start)
		wg.Wait()
	}

	res.Events = db.History()
	res.Report = histcheck.Check(res.Events)
	res.InvariantViolation = w.violation(db)
	return res, db, nil
}

// setup creates the workload's tables and commits its seed rows. A workload
// with no seed rows opens no seed transaction, so its tasks' transaction ids
// start right after setup's.
func (w *HuntWorkload) setup(db *storage.Database) error {
	for _, s := range w.Tables {
		if err := db.CreateTable(s); err != nil {
			return err
		}
	}
	if len(w.Seed) == 0 {
		return nil
	}
	_, _, err := w.exec(db, storage.ReadCommitted, w.Seed, nil)
	return err
}

// huntCell keys the values a task has read.
type huntCell struct {
	table string
	row   storage.RowID
	col   string
}

// exec is the hunt interpreter, the one place hunt ops become storage calls:
// it runs ops as one transaction at level — a task, one op of an autocommit
// task, the seed rows, or the invariants as one read-only check — and commits
// after the last op. read holds the values the task has read so far (nil
// where ops hold no read). An op that refuses rolls the transaction back and
// says why, with no error: for a task that is the workload's own validation
// saying no, for an invariant it is the violation. Engine errors roll back
// and are returned.
func (w *HuntWorkload) exec(db *storage.Database, level storage.IsolationLevel, ops []HuntOp, read map[huntCell]int64) (id uint64, refused string, err error) {
	tx := db.Begin(level)
	for _, op := range ops {
		at := func(vals []storage.Value) storage.Value { return vals[w.schema(op.Table).ColumnIndex(op.Col)] }
		switch op.Verb {
		case "read":
			var vals []storage.Value
			if vals, err = tx.Get(op.Table, op.Row); vals != nil {
				read[huntCell{op.Table, op.Row, op.Col}] = at(vals).I
			} else {
				refused = fmt.Sprintf("%s row %d is absent", op.Table, op.Row)
			}
		case "guard-sum":
			var sum int64
			for _, v := range read {
				sum += v
			}
			if sum < op.N {
				refused = fmt.Sprintf("the values read sum to %d, under %d", sum, op.N)
			}
		case "absent":
			err = tx.Scan(op.Table, storage.ScanOptions{
				Filter: &storage.EqFilter{Column: op.Cols[0], Value: op.Values[0]},
			}, func(storage.RowID, []storage.Value) bool {
				refused = fmt.Sprintf("a %s row has %s %s", op.Table, op.Cols[0], op.Values[0].Format())
				return false
			})
		case "add":
			sum := read[huntCell{op.Table, op.Row, op.Col}] + op.N
			err = tx.Update(op.Table, op.Row, map[string]storage.Value{op.Col: storage.Int(sum)})
		case "set":
			err = tx.Update(op.Table, op.Row, map[string]storage.Value{op.Col: op.Values[0]})
		case "insert":
			row := make(map[string]storage.Value, len(op.Cols))
			for i, col := range op.Cols {
				row[col] = op.Values[i]
			}
			_, _, err = tx.Insert(op.Table, row)
		case "delete":
			err = tx.Delete(op.Table, op.Row)
		case "unique":
			count := map[string]int{}
			var dup storage.Value // NULL until some value repeats; NULLs never do
			err = tx.Scan(op.Table, storage.ScanOptions{}, func(_ storage.RowID, vals []storage.Value) bool {
				v := at(vals)
				if count[v.Key()]++; count[v.Key()] == 2 && dup.IsNull() {
					dup = v
				}
				return true
			})
			if !dup.IsNull() {
				refused = fmt.Sprintf("%d rows share %s %q (want <= 1)", count[dup.Key()], op.Col, dup.Format())
			}
		case "no-orphans":
			var refs []storage.RowID
			err = tx.Scan(op.Table, storage.ScanOptions{}, func(_ storage.RowID, vals []storage.Value) bool {
				if v := at(vals); !v.IsNull() {
					refs = append(refs, storage.RowID(v.I))
				}
				return true
			})
			for _, ref := range refs {
				if err != nil || refused != "" {
					break
				}
				var parent []storage.Value
				if parent, err = tx.Get(op.Parent, ref); parent == nil && err == nil {
					refused = fmt.Sprintf("deleted %s row %d is still referenced from %s", op.Parent, ref, op.Table)
				}
			}
		case "one-of":
			var vals []storage.Value
			if vals, err = tx.Get(op.Table, op.Row); vals == nil {
				refused = fmt.Sprintf("%s row %d is absent", op.Table, op.Row)
			} else if !slices.ContainsFunc(op.Values, func(v storage.Value) bool { return storage.Equal(at(vals), v) }) {
				refused = fmt.Sprintf("%s row %d %s is %s, none of the allowed values", op.Table, op.Row, op.Col, at(vals).Format())
			}
		}
		if err != nil || refused != "" {
			tx.Rollback()
			return tx.ID(), refused, err
		}
	}
	return tx.ID(), "", tx.Commit()
}

// schema returns the declared table named name, or nil.
func (w *HuntWorkload) schema(name string) *storage.Schema {
	for _, s := range w.Tables {
		if strings.EqualFold(s.Name, name) {
			return s
		}
	}
	return nil
}

// violation checks the invariants against the committed final state and
// returns the first complaint, or "".
func (w *HuntWorkload) violation(db *storage.Database) string {
	if len(w.Invariants) == 0 {
		return ""
	}
	_, refused, err := w.exec(db, storage.ReadCommitted, w.Invariants, nil)
	if err != nil {
		return "invariant check failed: " + err.Error()
	}
	return refused
}

// Hunt workload catalog -------------------------------------------------------

// huntCatalog is the built-in catalog: the feral integrity patterns the paper
// measures, each reduced to its minimal concurrent shape, plus the engine's
// overload shed path.
var huntCatalog = []struct{ name, description, source string }{
	// The canonical G-single shape: read committed loses one of the
	// increments; snapshot isolation's first-committer-wins aborts one instead.
	{"lost-update", "two read-modify-write increments of one balance (G-single at RC/RR)", `
table accounts id:int:pk balance:int
row accounts balance=100
task
  read accounts 1 balance
  add accounts 1 balance 10
task
  read accounts 1 balance
  add accounts 1 balance 25`},
	// The canonical G2-item shape: each task reads both rows of the x + y >= 0
	// constraint and decrements a different row. Snapshot isolation admits it
	// (disjoint write sets); serializable aborts one.
	{"write-skew", "disjoint decrements guarded by a sum constraint (G2-item at SI)", `
table accounts id:int:pk balance:int
row accounts balance=60
row accounts balance=60
task
  read accounts 1 balance
  read accounts 2 balance
  guard-sum 100
  add accounts 1 balance -100
task
  read accounts 1 balance
  read accounts 2 balance
  guard-sum 100
  add accounts 2 balance -100`},
	// Figure 3 at minimal scale: both tasks feral-validate one email with a
	// scan and insert on absence. Predicate-only reads leave no item rw edges
	// for the graph, so the duplicate is caught by the invariant.
	{"uniqueness", "feral validates_uniqueness: scan-then-insert of one email (duplicates at weak levels)", `
table users id:int:pk email:string
invariant unique users email
task
  insert-unless users email=dup@example.com
task
  insert-unless users email=dup@example.com`},
	// Figure 5: the inserter feral-validates the parent's existence before
	// inserting a child while the deleter deletes the parent after
	// feral-checking it has no children. The orphan is a final-state fact.
	{"association", "feral belongs_to: insert-after-parent-check races parent delete (orphans at weak levels)", `
table departments id:int:pk
table employees id:int:pk dept_id:int
row departments
invariant no-orphans employees dept_id departments
task
  read departments 1 id
  insert employees dept_id=1
task
  absent employees dept_id=1
  delete departments 1`},
	// Three blind writes contend on one row with lock waiting disabled, so
	// every lock conflict is an immediate ErrOverloaded instead of a park.
	// Blind writes keep the anomaly vocabulary empty regardless of
	// interleaving; the property is negative — a shed transaction must abort
	// cleanly and leave no trace in the history (no G1a) or the final state.
	{"overload-shed", "three contended blind writes with no-wait locks (sheds must abort cleanly, no G1a)", `
table accounts id:int:pk balance:int
row accounts balance=100
lock-queue-bound -1
invariant one-of accounts 1 balance 100 201 202 203
task
  set accounts 1 balance 201
task
  set accounts 1 balance 202
task
  set accounts 1 balance 203`},
}

// HuntWorkloads returns the built-in catalog, parsed from its DSL source.
func HuntWorkloads() []HuntWorkload {
	out := make([]HuntWorkload, len(huntCatalog))
	for i, c := range huntCatalog {
		w, err := ParseHuntWorkload(strings.NewReader(c.source), c.name)
		if err != nil {
			panic(fmt.Sprintf("experiment: hunt catalog %s: %v", c.name, err))
		}
		w.Description = c.description
		out[i] = w
	}
	return out
}

// HuntWorkloadByName finds a catalog workload.
func HuntWorkloadByName(name string) (HuntWorkload, error) {
	for _, w := range HuntWorkloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return HuntWorkload{}, fmt.Errorf("experiment: unknown hunt workload %q", name)
}
