package experiment

import (
	"fmt"
	"sort"
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

// HuntTask is one transaction body: it runs exactly one transaction against
// db at level and returns the transaction's id (0 when Begin was never
// reached). Engine aborts (lock timeouts, first-committer-wins, serialization
// failures) are expected hunt outcomes and are returned, not swallowed.
type HuntTask func(db *storage.Database, level storage.IsolationLevel) (uint64, error)

// HuntWorkload is a named concurrent workload for the anomaly hunter.
type HuntWorkload struct {
	Name        string
	Description string
	// Setup creates the schema and seed rows; it runs unscheduled (the
	// scheduler ignores unregistered goroutines) and its history is discarded.
	Setup func(db *storage.Database) error
	// Tasks run concurrently, one per scheduler task, in task-index order of
	// the schedule's priority vector.
	Tasks []HuntTask
	// Invariant, when non-nil, checks the application-level integrity
	// condition after all tasks finish (duplicate keys, orphaned children);
	// it returns "" when the final state is consistent. Predicate-only
	// workloads need it: a feral validation race materializes as corrupt
	// final state even when the item-level serialization graph stays acyclic.
	Invariant func(db *storage.Database) string
	// Tune, when non-nil, adjusts the engine options before Open — how
	// overload workloads set queue bounds (LockQueueBound, CommitQueueBound)
	// without the runner growing a parameter per knob. It runs after the
	// runner fills the fields it owns, so it can override them too.
	Tune func(*storage.Options)
}

// HuntResult is one scheduled execution of a workload.
type HuntResult struct {
	Events []histcheck.Event
	Report *histcheck.Report
	// TxTask maps transaction ids in Events to the task index that ran them.
	TxTask map[uint64]int
	// TaskErrs holds each task's transaction outcome (nil = committed).
	TaskErrs []error
	// InvariantViolation is the workload invariant's complaint, or "".
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
	s := sched.New(len(w.Tasks), sc)
	res, err := runHunt(w, level, storage.Options{Yielder: s}, func(bodies []func()) { s.Run(bodies...) })
	if err != nil {
		return nil, err
	}
	res.Decisions = s.Decisions()
	return res, nil
}

// RunHuntStress executes workload w once with NO scheduler: tasks race as
// plain goroutines released together, the way the stress census runs. This is
// the hunter's baseline — how often wall-clock nondeterminism stumbles into
// the anomaly that a directed schedule forces — so run summaries can report
// the comparison the issue asks for.
func RunHuntStress(w HuntWorkload, level storage.IsolationLevel) (*HuntResult, error) {
	return runHunt(w, level, storage.Options{LockTimeout: 50 * time.Millisecond}, func(bodies []func()) {
		var start, wg sync.WaitGroup
		start.Add(1)
		wg.Add(len(bodies))
		for _, body := range bodies {
			go func() {
				defer wg.Done()
				start.Wait()
				body()
			}()
		}
		start.Done()
		wg.Wait()
	})
}

// runHunt is one hunt execution: open an engine with opts (plus the level,
// history recording, and the workload's Tune), run Setup and discard its
// history, hand run one body per task — the two runners differ only in how
// they release the bodies — then check the recorded history and the
// workload's invariant.
func runHunt(w HuntWorkload, level storage.IsolationLevel, opts storage.Options, run func(bodies []func())) (*HuntResult, error) {
	opts.DefaultIsolation = level
	opts.RecordHistory = true
	if w.Tune != nil {
		w.Tune(&opts)
	}
	db := storage.Open(opts)
	defer db.Close()
	if err := w.Setup(db); err != nil {
		return nil, fmt.Errorf("experiment: hunt setup %s: %w", w.Name, err)
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
	for i, task := range w.Tasks {
		bodies[i] = func() {
			id, err := task(db, level)
			mu.Lock()
			if id != 0 {
				res.TxTask[id] = i
			}
			res.TaskErrs[i] = err
			mu.Unlock()
		}
	}
	run(bodies)

	res.Events = db.History()
	res.Report = histcheck.Check(res.Events)
	if w.Invariant != nil {
		res.InvariantViolation = w.Invariant(db)
	}
	return res, nil
}

// Hunt workload catalog -------------------------------------------------------

// HuntWorkloads returns the built-in catalog: the four feral integrity
// patterns the paper measures, each reduced to its minimal concurrent shape.
func HuntWorkloads() []HuntWorkload {
	return []HuntWorkload{
		LostUpdateWorkload(),
		WriteSkewWorkload(),
		UniquenessHuntWorkload(),
		AssociationHuntWorkload(),
		OverloadShedWorkload(),
	}
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

// LostUpdateWorkload is the canonical G-single shape: two transactions each
// read-modify-write the same account balance. Read committed loses one of the
// increments; snapshot isolation's first-committer-wins aborts one instead.
func LostUpdateWorkload() HuntWorkload {
	const rowID = storage.RowID(1)
	return HuntWorkload{
		Name:        "lost-update",
		Description: "two read-modify-write increments of one balance (G-single at RC/RR)",
		Setup:       huntAccounts(1, 100),
		Tasks: []HuntTask{
			huntIncrement(rowID, 10),
			huntIncrement(rowID, 25),
		},
	}
}

// huntAccounts returns a Setup that creates the accounts table and seeds rows
// 1..n with balance in one transaction.
func huntAccounts(n int, balance int64) func(*storage.Database) error {
	return func(db *storage.Database) error {
		if err := db.CreateTable(&storage.Schema{
			Name: "accounts",
			Columns: []storage.Column{
				{Name: "id", Kind: storage.KindInt, PrimaryKey: true},
				{Name: "balance", Kind: storage.KindInt},
			},
		}); err != nil {
			return err
		}
		tx := db.Begin(storage.ReadCommitted)
		for i := 0; i < n; i++ {
			if _, _, err := tx.Insert("accounts", map[string]storage.Value{"balance": storage.Int(balance)}); err != nil {
				tx.Rollback()
				return err
			}
		}
		return tx.Commit()
	}
}

// huntIncrement returns a task that adds delta to the balance of row id via
// an unlocked read followed by an update — the feral read-modify-write.
func huntIncrement(id storage.RowID, delta int64) HuntTask {
	return huntTx(func(tx *storage.Tx) (bool, error) {
		vals, err := tx.Get("accounts", id)
		if err != nil || vals == nil {
			return false, err
		}
		bal := vals[1].I
		return true, tx.Update("accounts", id, map[string]storage.Value{"balance": storage.Int(bal + delta)})
	})
}

// huntTx makes a task of one transaction body: begin at the hunt's level, run
// body, and commit if it says so without error — roll back otherwise.
func huntTx(body func(tx *storage.Tx) (commit bool, err error)) HuntTask {
	return func(db *storage.Database, level storage.IsolationLevel) (uint64, error) {
		tx := db.Begin(level)
		if commit, err := body(tx); err != nil || !commit {
			tx.Rollback()
			return tx.ID(), err
		}
		return tx.ID(), tx.Commit()
	}
}

// WriteSkewWorkload is the canonical G2-item shape: two transactions each
// read both rows of a constraint (x + y >= 0) and decrement different rows.
// Snapshot isolation admits it (disjoint write sets); serializable aborts one.
func WriteSkewWorkload() HuntWorkload {
	const xID, yID = storage.RowID(1), storage.RowID(2)
	return HuntWorkload{
		Name:        "write-skew",
		Description: "disjoint decrements guarded by a sum constraint (G2-item at SI)",
		Setup:       huntAccounts(2, 60),
		Tasks: []HuntTask{
			huntSkewWithdraw(xID, yID, xID, 100),
			huntSkewWithdraw(xID, yID, yID, 100),
		},
	}
}

// huntSkewWithdraw reads both constraint rows, and withdraws amount from
// target only if the combined balance covers it.
func huntSkewWithdraw(xID, yID, target storage.RowID, amount int64) HuntTask {
	return huntTx(func(tx *storage.Tx) (bool, error) {
		xv, err := tx.Get("accounts", xID)
		if err != nil || xv == nil {
			return false, err
		}
		yv, err := tx.Get("accounts", yID)
		if err != nil || yv == nil {
			return false, err
		}
		if xv[1].I+yv[1].I < amount {
			return false, nil // constraint correctly refused the withdrawal
		}
		cur := xv[1].I
		if target == yID {
			cur = yv[1].I
		}
		return true, tx.Update("accounts", target, map[string]storage.Value{"balance": storage.Int(cur - amount)})
	})
}

// UniquenessHuntWorkload is the paper's Figure 3 pattern at minimal scale:
// two transactions feral-validate the same email with a scan and insert on
// absence. The duplicate materializes in final state; the invariant is the
// oracle because predicate-only reads leave no item rw edges for the graph.
func UniquenessHuntWorkload() HuntWorkload {
	const email = "dup@example.com"
	return HuntWorkload{
		Name:        "uniqueness",
		Description: "feral validates_uniqueness: scan-then-insert of one email (duplicates at weak levels)",
		Setup: func(db *storage.Database) error {
			return db.CreateTable(&storage.Schema{
				Name: "users",
				Columns: []storage.Column{
					{Name: "id", Kind: storage.KindInt, PrimaryKey: true},
					{Name: "email", Kind: storage.KindString},
				},
			})
		},
		Tasks: []HuntTask{
			huntFeralInsert(email),
			huntFeralInsert(email),
		},
		Invariant: func(db *storage.Database) string {
			n, err := huntCountEmail(db, email)
			if err != nil {
				return "invariant check failed: " + err.Error()
			}
			if n > 1 {
				return fmt.Sprintf("%d rows share email %q (want <= 1)", n, email)
			}
			return ""
		},
	}
}

// huntFeralInsert performs SELECT-then-INSERT uniqueness validation.
func huntFeralInsert(email string) HuntTask {
	return huntTx(func(tx *storage.Tx) (bool, error) {
		found := false
		err := tx.Scan("users", storage.ScanOptions{
			Filter: &storage.EqFilter{Column: "email", Value: storage.Str(email)},
		}, func(storage.RowID, []storage.Value) bool {
			found = true
			return false
		})
		if err != nil || found {
			return false, err // found: validation correctly refused the duplicate
		}
		_, _, err = tx.Insert("users", map[string]storage.Value{"email": storage.Str(email)})
		return true, err
	})
}

// huntCountEmail counts committed rows holding email.
func huntCountEmail(db *storage.Database, email string) (int, error) {
	tx := db.Begin(storage.ReadCommitted)
	defer tx.Rollback()
	n := 0
	err := tx.Scan("users", storage.ScanOptions{
		Filter: &storage.EqFilter{Column: "email", Value: storage.Str(email)},
	}, func(storage.RowID, []storage.Value) bool {
		n++
		return true
	})
	return n, err
}

// OverloadShedWorkload exercises the engine's shed path under the hunter:
// three blind writes contend on one row with lock waiting disabled
// (LockQueueBound -1), so every lock conflict is answered with an immediate
// ErrOverloaded instead of a park. Blind writes keep the anomaly vocabulary
// empty regardless of interleaving (no read-modify-write, so no G-single);
// the interesting property is negative — a shed transaction must abort
// cleanly and leave no trace in the history (no G1a) or the final state,
// which the invariant and the standard Adya report jointly pin.
func OverloadShedWorkload() HuntWorkload {
	const rowID = storage.RowID(1)
	return HuntWorkload{
		Name:        "overload-shed",
		Description: "three contended blind writes with no-wait locks (sheds must abort cleanly, no G1a)",
		Setup:       huntAccounts(1, 100),
		Tasks: []HuntTask{
			huntBlindWrite(rowID, 201),
			huntBlindWrite(rowID, 202),
			huntBlindWrite(rowID, 203),
		},
		Invariant: func(db *storage.Database) string {
			tx := db.Begin(storage.ReadCommitted)
			defer tx.Rollback()
			vals, err := tx.Get("accounts", rowID)
			if err != nil || vals == nil {
				return "invariant check failed: seed row missing"
			}
			// The committed balance must be the seed or one task's whole
			// write; a shed transaction's value surviving would mean the
			// abort leaked a write.
			switch bal := vals[1].I; bal {
			case 100, 201, 202, 203:
				return ""
			default:
				return fmt.Sprintf("balance %d is no task's committed write: a shed leaked", bal)
			}
		},
		Tune: func(o *storage.Options) {
			o.LockQueueBound = -1 // no waiting: conflicts shed immediately
		},
	}
}

// huntBlindWrite sets the balance of row id to val without reading it first.
func huntBlindWrite(id storage.RowID, val int64) HuntTask {
	return huntTx(func(tx *storage.Tx) (bool, error) {
		return true, tx.Update("accounts", id, map[string]storage.Value{"balance": storage.Int(val)})
	})
}

// AssociationHuntWorkload is the paper's Figure 5 pattern: one transaction
// feral-validates a parent's existence before inserting a child, while a
// concurrent transaction deletes the parent after feral-checking it has no
// children. The orphan is a final-state fact; the invariant is the oracle.
func AssociationHuntWorkload() HuntWorkload {
	const deptID = storage.RowID(1)
	return HuntWorkload{
		Name:        "association",
		Description: "feral belongs_to: insert-after-parent-check races parent delete (orphans at weak levels)",
		Setup: func(db *storage.Database) error {
			if err := db.CreateTable(&storage.Schema{
				Name: "departments",
				Columns: []storage.Column{
					{Name: "id", Kind: storage.KindInt, PrimaryKey: true},
				},
			}); err != nil {
				return err
			}
			if err := db.CreateTable(&storage.Schema{
				Name: "employees",
				Columns: []storage.Column{
					{Name: "id", Kind: storage.KindInt, PrimaryKey: true},
					{Name: "dept_id", Kind: storage.KindInt},
				},
			}); err != nil {
				return err
			}
			tx := db.Begin(storage.ReadCommitted)
			if _, _, err := tx.Insert("departments", nil); err != nil {
				tx.Rollback()
				return err
			}
			return tx.Commit()
		},
		Tasks: []HuntTask{
			// Inserter: check the parent exists, then insert the child.
			huntTx(func(tx *storage.Tx) (bool, error) {
				parent, err := tx.Get("departments", deptID)
				if err != nil || parent == nil {
					return false, err // no parent: validation correctly refused the orphan
				}
				_, _, err = tx.Insert("employees", map[string]storage.Value{"dept_id": storage.Int(int64(deptID))})
				return true, err
			}),
			// Deleter: check no children exist, then delete the parent.
			huntTx(func(tx *storage.Tx) (bool, error) {
				hasChild := false
				err := tx.Scan("employees", storage.ScanOptions{
					Filter: &storage.EqFilter{Column: "dept_id", Value: storage.Int(int64(deptID))},
				}, func(storage.RowID, []storage.Value) bool {
					hasChild = true
					return false
				})
				if err != nil || hasChild {
					return false, err // children present: delete refused
				}
				return true, tx.Delete("departments", deptID)
			}),
		},
		Invariant: func(db *storage.Database) string {
			tx := db.Begin(storage.ReadCommitted)
			defer tx.Rollback()
			parent, err := tx.Get("departments", deptID)
			if err != nil {
				return "invariant check failed: " + err.Error()
			}
			if parent != nil {
				return "" // parent survived; children cannot be orphans
			}
			orphans := 0
			err = tx.Scan("employees", storage.ScanOptions{
				Filter: &storage.EqFilter{Column: "dept_id", Value: storage.Int(int64(deptID))},
			}, func(storage.RowID, []storage.Value) bool {
				orphans++
				return true
			})
			if err != nil {
				return "invariant check failed: " + err.Error()
			}
			if orphans > 0 {
				return fmt.Sprintf("%d employees reference deleted department %d", orphans, deptID)
			}
			return ""
		},
	}
}
