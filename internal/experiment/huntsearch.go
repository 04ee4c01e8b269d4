package experiment

import (
	"feralcc/internal/histcheck"
	"feralcc/internal/sched"
	"feralcc/internal/storage"
)

// The search loop: one natural run, then directed schedules synthesized from
// almost-cycles, then PCT-style random priority schedules until the budget
// runs out. feralhunt and the Section 6 framework survey both decide their
// workloads with it.
//
// The directed move is the heart of it. An almost-cycle W --wr--> R says the
// schedule let R observe W's install but never endangered R back; holding W
// at its commit yield until R reaches its own commit forces both to act on
// the pre-W state, which closes the missing rw edge when the workload admits
// it at all. The hold is best-effort by design — if W's held commit blocks R
// (say R waits on W's row lock), the scheduler force-releases W, and that
// forced order is frequently the adversarial interleaving itself.

// HuntOutcome is one finished hunt.
type HuntOutcome struct {
	// Found is true when some run surfaced an anomaly (graph class or
	// invariant violation).
	Found bool
	// Class is the anomaly class found ("G-single", "G2-item", ...,
	// or "invariant").
	Class string
	// EngineBug is true when the finding is forbidden at the hunted level —
	// the engine broke its isolation contract.
	EngineBug bool
	// Schedules is how many schedules ran in total; Directed of them came
	// from the almost-cycle queue.
	Schedules int
	Directed  int
	// Schedule is the one that exhibited the anomaly.
	Schedule sched.Schedule
	// Witness is the minimized anomaly history; Raw the unminimized one.
	Witness []histcheck.Event
	Raw     []histcheck.Event
	// Report is the checker verdict on the finding run.
	Report *histcheck.Report
	// Invariant carries the invariant oracle's complaint for Class=="invariant".
	Invariant string
}

// Hunt runs the bounded search: at most budget schedules of w at level, the
// random ones seeded from seed. target restricts what counts as a find
// ("any", a histcheck class name, or "invariant").
func Hunt(w HuntWorkload, level storage.IsolationLevel, budget int, seed int64, target string) (*HuntOutcome, error) {
	out := &HuntOutcome{}
	tried := map[string]bool{}
	var queue []sched.Schedule

	// enqueue turns a run's almost-cycles into unseen directed schedules.
	enqueue := func(res *HuntResult) {
		for _, ac := range histcheck.AlmostCycles(res.Events) {
			wt, okW := res.TxTask[ac.Writer]
			rt, okR := res.TxTask[ac.Reader]
			if !okW || !okR || wt == rt {
				continue // a setup or invariant transaction; not steerable
			}
			sc := sched.Schedule{Delays: []sched.Delay{{
				Task: wt, Point: storage.YieldCommit, Visit: 1,
				Until: sched.Until{Task: rt, Point: storage.YieldCommit, Visit: 1},
			}}}
			if key := sc.String(); !tried[key] {
				tried[key] = true
				queue = append(queue, sc)
			}
		}
	}

	for i := 0; i < budget; i++ {
		var sc sched.Schedule
		directed := false
		switch {
		case i == 0:
			// Round 0: the natural schedule, to harvest steering signal.
			sc = sched.Schedule{}
		case len(queue) > 0:
			sc, queue = queue[0], queue[1:]
			directed = true
		default:
			sc = sched.RandomSchedule(seed+int64(i), len(w.Tasks), 20, 3)
		}
		res, err := RunHuntSchedule(w, level, sc)
		if err != nil {
			return nil, err
		}
		out.Schedules++
		if directed {
			out.Directed++
		}
		if class, ok := matches(res, target); ok {
			out.Found = true
			out.Class = class
			out.Schedule = sc
			out.Raw = res.Events
			out.Report = res.Report
			out.Invariant = res.InvariantViolation
			out.EngineBug = !res.Report.Pass()
			if class != "invariant" {
				out.Witness = histcheck.MinimizeWitness(res.Events, histcheck.Anomaly(class))
			} else {
				out.Witness = res.Events
			}
			return out, nil
		}
		enqueue(res)
	}
	return out, nil
}

// HuntBaseline reruns w unscheduled (RunHuntStress) until target shows up or
// runs are exhausted, returning how many runs it took (0 = never found).
func HuntBaseline(w HuntWorkload, level storage.IsolationLevel, runs int, target string) (int, error) {
	for i := 1; i <= runs; i++ {
		res, err := RunHuntStress(w, level)
		if err != nil {
			return 0, err
		}
		if _, hit := matches(res, target); hit {
			return i, nil
		}
	}
	return 0, nil
}

// matches reports whether a run counts as a find for target ("any", a
// histcheck class name, or "invariant"), and as which class.
func matches(res *HuntResult, target string) (string, bool) {
	switch target {
	case "any", "":
		if cs := res.Report.Classes(); len(cs) > 0 {
			return string(cs[0]), true
		}
		if res.InvariantViolation != "" {
			return "invariant", true
		}
	case "invariant":
		if res.InvariantViolation != "" {
			return "invariant", true
		}
	default:
		if res.Report.Has(histcheck.Anomaly(target)) {
			return target, true
		}
	}
	return "", false
}
