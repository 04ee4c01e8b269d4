// Package sched is a seedable deterministic scheduler for concurrency
// testing: it serializes the progress of N registered goroutines ("tasks") at
// explicit yield points, so a (seed, schedule) pair fully determines which
// task runs between any two points. The storage engine exposes the yield
// points (Options.Yielder threads them through the lock manager, the commit
// pipeline, and the WAL); this package decides who runs.
//
// The model is a single baton: exactly one task executes at a time, and the
// baton changes hands only at yield points. Three kinds of suspension exist:
//
//   - Yield(point): the task is at a named progress point and any eligible
//     task (including itself) may be scheduled next.
//   - Park(point, victim): the task cannot proceed until some *other task*
//     makes progress (a lock held by a peer, a conflicting commit intent).
//     Parked tasks are retried only after the epoch advances — i.e. after
//     real progress elsewhere — which prevents grant/park livelock. When
//     every live task is parked and no progress is possible, the scheduler
//     declares a deadlock and wakes the lowest-index victim-eligible task
//     with ErrDeadlockVictim; the engine converts that into its usual
//     deadlock verdict (ErrLockTimeout).
//   - ParkExternal(point): the task waits on an *unscheduled* goroutine (setup
//     code, a checkpoint or vacuum holding the engine's quiesce gate or a
//     table latch). Such tasks are always retryable — external progress is
//     invisible to the epoch — with a tiny sleep when nothing else could run,
//     so the spin is bounded.
//
// Determinism holds for workloads whose waits are all scheduler-visible: the
// same (seed, schedule) produces byte-identical histories and decision counts
// on an in-memory database and on a durable one at sync=always or sync=off,
// because the committer leading a group-commit batch is itself a task and
// writes and fsyncs the log between yield points. Under sync=interval an
// unscheduled background syncer consults the engine's fault hook and takes
// the log lock on its own clock, so replay is not claimed there.
package sched

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// ErrDeadlockVictim is returned from Park when the scheduler nominated the
// parked task to break an all-parked stall. The caller must abandon the wait
// (the storage engine surfaces it as a lock timeout).
var ErrDeadlockVictim = errors.New("sched: deadlock victim")

type taskState uint8

const (
	tsNew       taskState = iota
	tsReady               // runnable, waiting for the baton
	tsRunning             // holds the baton
	tsParked              // waiting for peer progress; retry after epoch advance
	tsParkedExt           // waiting for an unscheduled goroutine; always retryable
	tsHeld                // suspended by a Delay directive
	tsDone
)

func (s taskState) String() string {
	switch s {
	case tsNew:
		return "new"
	case tsReady:
		return "ready"
	case tsRunning:
		return "running"
	case tsParked:
		return "parked"
	case tsParkedExt:
		return "parked-ext"
	case tsHeld:
		return "held"
	case tsDone:
		return "done"
	default:
		return "?"
	}
}

// task is one scheduled goroutine.
type task struct {
	idx       int
	grant     chan struct{} // capacity 1; one token = the baton
	state     taskState
	prio      int
	parkEpoch uint64 // epoch at the moment of parking
	parkPoint string
	victim    bool // eligible for deadlock-victim nomination
	parkErr   error
	visits    map[string]int // yield-point visit counts, 1-based
	hold      *delayState    // active Delay directive, when held
}

// delayState is one Delay directive plus its consumed flag: a directive
// engages at most once per run.
type delayState struct {
	Delay
	used bool
}

// Scheduler serializes a fixed set of tasks under one Schedule. A Scheduler
// is single-use: build a fresh one per run.
type Scheduler struct {
	mu      sync.Mutex
	tasks   []*task
	byGid   map[uint64]*task
	adopted int
	started bool

	schedule  Schedule
	delays    []*delayState
	cpIdx     int // next unconsumed change point
	lowPrio   int // water mark for change-point demotions
	decisions uint64
	epoch     uint64 // advances on real progress (yield, leave)
	victims   int
}

// New builds a scheduler for n tasks under the given schedule. Missing
// priorities default to n-1..0 (task 0 highest), so the zero Schedule is a
// valid "run tasks in index order between yields" schedule.
func New(n int, schedule Schedule) *Scheduler {
	s := &Scheduler{
		tasks:    make([]*task, n),
		byGid:    make(map[uint64]*task, n),
		schedule: schedule,
	}
	for i := range s.tasks {
		prio := n - 1 - i
		if i < len(schedule.Priorities) {
			prio = schedule.Priorities[i]
		}
		s.tasks[i] = &task{
			idx:    i,
			grant:  make(chan struct{}, 1),
			state:  tsNew,
			prio:   prio,
			visits: make(map[string]int),
		}
		if prio < s.lowPrio {
			s.lowPrio = prio
		}
	}
	for i := range schedule.Delays {
		s.delays = append(s.delays, &delayState{Delay: schedule.Delays[i]})
	}
	sort.Slice(s.schedule.ChangePoints, func(i, j int) bool {
		return s.schedule.ChangePoints[i] < s.schedule.ChangePoints[j]
	})
	return s
}

// Run executes the bodies, one per task, to completion under the schedule.
// Bodies run on their own goroutines; the scheduler guarantees at most one
// executes between yield points at any moment. Run blocks until all finish.
func (s *Scheduler) Run(bodies ...func()) {
	if len(bodies) != len(s.tasks) {
		panic(fmt.Sprintf("sched: Run got %d bodies for %d tasks", len(bodies), len(s.tasks)))
	}
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int, body func()) {
			defer wg.Done()
			s.adopt(i)
			defer s.leave(i)
			body()
		}(i, bodies[i])
	}
	wg.Wait()
}

// Decisions returns how many scheduling decisions were made.
func (s *Scheduler) Decisions() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.decisions
}

// DeadlockVictims returns how many stalls were broken by victim nomination.
func (s *Scheduler) DeadlockVictims() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.victims
}

// adopt binds the calling goroutine to task idx and blocks until every task
// has adopted (the start barrier) and this task is scheduled.
func (s *Scheduler) adopt(idx int) {
	gid := curGID()
	s.mu.Lock()
	t := s.tasks[idx]
	s.byGid[gid] = t
	t.state = tsReady
	s.adopted++
	if s.adopted == len(s.tasks) {
		s.started = true
		s.scheduleLocked()
	}
	s.mu.Unlock()
	<-t.grant
}

// leave marks task idx finished and hands the baton onward.
func (s *Scheduler) leave(idx int) {
	gid := curGID()
	s.mu.Lock()
	t := s.tasks[idx]
	t.state = tsDone
	delete(s.byGid, gid)
	s.epoch++
	s.scheduleLocked()
	s.mu.Unlock()
}

// self returns the calling goroutine's task, or nil for unregistered
// goroutines (setup code, background engine goroutines), which must not be
// scheduled. Caller holds s.mu.
func (s *Scheduler) selfLocked() *task {
	return s.byGid[curGID()]
}

// Yield marks a named progress point: the task releases the baton, the point
// visit is counted (engaging any matching Delay directive), and the scheduler
// picks the next task — possibly the same one. Unregistered goroutines
// return immediately.
func (s *Scheduler) Yield(point string) {
	s.mu.Lock()
	t := s.selfLocked()
	if t == nil {
		s.mu.Unlock()
		return
	}
	t.visits[point]++
	if d := s.matchDelayLocked(t, point); d != nil {
		t.state = tsHeld
		t.hold = d
	} else {
		t.state = tsReady
	}
	s.epoch++ // reaching a yield point is real progress
	s.scheduleLocked()
	s.mu.Unlock()
	<-t.grant
}

// Park suspends the task until peer progress makes a retry worthwhile. The
// caller loops: check whether it can proceed (its lock granted, its commit
// turn come), Park if not, check again. victim marks the wait as abortable
// (lock waits are; commit-order waits are not). A non-nil return is
// ErrDeadlockVictim: the caller must abandon the wait.
// Unregistered goroutines sleep briefly and return nil, degrading to a
// bounded spin.
func (s *Scheduler) Park(point string, victim bool) error {
	s.mu.Lock()
	t := s.selfLocked()
	if t == nil {
		s.mu.Unlock()
		time.Sleep(100 * time.Microsecond)
		return nil
	}
	t.state = tsParked
	t.parkEpoch = s.epoch
	t.parkPoint = point
	t.victim = victim
	s.scheduleLocked()
	s.mu.Unlock()
	<-t.grant
	if err := t.parkErr; err != nil {
		t.parkErr = nil
		return err
	}
	return nil
}

// ParkExternal suspends the task pending progress by an unscheduled
// goroutine (e.g. a checkpoint holding the engine's quiesce gate). Such tasks
// stay retryable even without scheduler-visible progress; when the retry was
// granted with no progress since parking, a tiny sleep bounds the spin while
// the external event completes in real time.
func (s *Scheduler) ParkExternal(point string) {
	s.mu.Lock()
	t := s.selfLocked()
	if t == nil {
		s.mu.Unlock()
		time.Sleep(100 * time.Microsecond)
		return
	}
	t.state = tsParkedExt
	t.parkEpoch = s.epoch
	t.parkPoint = point
	s.scheduleLocked()
	s.mu.Unlock()
	<-t.grant
	s.mu.Lock()
	stale := s.epoch == t.parkEpoch
	s.mu.Unlock()
	if stale {
		time.Sleep(20 * time.Microsecond)
	}
}

// matchDelayLocked returns the first unconsumed Delay directive matching this
// task's arrival at point (visit counts are 1-based), consuming it — unless
// its Until condition already holds, in which case the hold is moot.
func (s *Scheduler) matchDelayLocked(t *task, point string) *delayState {
	for _, d := range s.delays {
		if d.used || d.Task != t.idx || d.Point != point {
			continue
		}
		want := d.Visit
		if want == 0 {
			want = 1
		}
		if t.visits[point] != want {
			continue
		}
		d.used = true
		if s.holdSatisfiedLocked(d) {
			return nil
		}
		return d
	}
	return nil
}

// holdSatisfiedLocked reports whether a Delay's Until condition is met: the
// target task has reached the named point the required number of times, or
// has finished (a finished target can never satisfy the condition, so the
// hold is released as unsatisfiable).
func (s *Scheduler) holdSatisfiedLocked(d *delayState) bool {
	if d.Until.Task < 0 || d.Until.Task >= len(s.tasks) {
		return true
	}
	target := s.tasks[d.Until.Task]
	if target.state == tsDone {
		return true
	}
	if d.Until.Point == "" {
		return false // waiting for target completion
	}
	want := d.Until.Visit
	if want == 0 {
		want = 1
	}
	return target.visits[d.Until.Point] >= want
}

// scheduleLocked picks and grants the next task. Eligibility: ready tasks
// always; parked tasks only after the epoch advanced past their park;
// external parks as a fallback when nothing else can run. Held tasks whose
// Until condition is met are released to ready first. Among eligible tasks
// the highest priority wins, ties to the lowest index; PCT change points
// demote the would-be winner and re-pick. An all-parked stall releases
// remaining holds, then nominates a deadlock victim; a stall with neither is
// a scheduler-coverage bug and panics with a full state dump.
func (s *Scheduler) scheduleLocked() {
	if !s.started {
		return
	}
	for {
		// Release satisfied (or unsatisfiable) holds.
		for _, t := range s.tasks {
			if t.state == tsHeld && s.holdSatisfiedLocked(t.hold) {
				t.state = tsReady
				t.hold = nil
			}
		}
		var best *task
		better := func(c *task) bool {
			return best == nil || c.prio > best.prio || (c.prio == best.prio && c.idx < best.idx)
		}
		for _, t := range s.tasks {
			switch t.state {
			case tsReady:
			case tsParked, tsParkedExt:
				if s.epoch <= t.parkEpoch {
					continue
				}
			default:
				continue
			}
			if better(t) {
				best = t
			}
		}
		if best == nil {
			// External parks are retryable even without logical progress.
			for _, t := range s.tasks {
				if t.state == tsParkedExt && better(t) {
					best = t
				}
			}
		}
		if best == nil {
			allDone := true
			anyHeld := false
			var victim *task
			for _, t := range s.tasks {
				if t.state != tsDone {
					allDone = false
				}
				if t.state == tsHeld {
					anyHeld = true
				}
				if t.state == tsParked && t.victim && victim == nil {
					victim = t
				}
			}
			if allDone {
				return
			}
			if anyHeld {
				// Directed holds are best effort: when honoring one would
				// stall the run, forward progress wins. The forced release
				// often IS the adversarial interleaving the directive aimed
				// for — the held task stayed put exactly as long as the rest
				// of the system could proceed without it.
				for _, t := range s.tasks {
					if t.state == tsHeld {
						t.state = tsReady
						t.hold = nil
					}
				}
				continue
			}
			if victim == nil {
				panic("sched: unresolvable stall (missing yield-point coverage?)\n" + s.dumpLocked())
			}
			s.victims++
			victim.parkErr = ErrDeadlockVictim
			best = victim
		}
		// PCT change point: demote the would-be winner and re-pick.
		if s.cpIdx < len(s.schedule.ChangePoints) && s.decisions >= s.schedule.ChangePoints[s.cpIdx] {
			s.cpIdx++
			s.lowPrio--
			best.prio = s.lowPrio
			continue
		}
		s.decisions++
		best.state = tsRunning
		select {
		case best.grant <- struct{}{}:
		default:
			panic("sched: double grant\n" + s.dumpLocked())
		}
		return
	}
}

// dumpLocked renders per-task state for stall diagnostics.
func (s *Scheduler) dumpLocked() string {
	var b strings.Builder
	fmt.Fprintf(&b, "epoch=%d decisions=%d\n", s.epoch, s.decisions)
	for _, t := range s.tasks {
		fmt.Fprintf(&b, "  task %d: %s prio=%d", t.idx, t.state, t.prio)
		if t.state == tsParked || t.state == tsParkedExt {
			fmt.Fprintf(&b, " at %q (epoch %d, victim=%v)", t.parkPoint, t.parkEpoch, t.victim)
		}
		if t.hold != nil {
			fmt.Fprintf(&b, " held for task %d @ %q", t.hold.Until.Task, t.hold.Until.Point)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
