package storage

import (
	"errors"
	"runtime"
	"sync"
	"testing"
)

// probeLog records, in one sequence, every fault-hook consult ("fault:<op>")
// and every scheduler yield ("yield:<point>") the engine makes once armed. It
// is both seams at once: hook is Options.FaultHook and the log itself is the
// Options.Yielder.
type probeLog struct {
	mu      sync.Mutex
	armed   bool
	failAt  string
	failErr error
	entries []string
}

func (l *probeLog) hook(op string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.armed {
		return nil
	}
	l.entries = append(l.entries, "fault:"+op)
	if op == l.failAt {
		return l.failErr
	}
	return nil
}

func (l *probeLog) Yield(point string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.armed {
		l.entries = append(l.entries, "yield:"+point)
	}
}

func (l *probeLog) Park(string, bool) error { return nil }
func (l *probeLog) ParkExternal(string)     { runtime.Gosched() }

// TestPointFaultFirstAndSuppressesYield drives one locking, durable, fsynced
// transaction through every program point FaultHook and Yielder share. With
// no fault armed, each yield at a shared point directly follows the fault
// consult for the same point; with the fault failing at one point, the
// operation fails with the injected error and no yield happens there.
func TestPointFaultFirstAndSuppressesYield(t *testing.T) {
	shared := []string{YieldLock, YieldCommit, YieldWALAppend, YieldWALFsync}
	injected := errors.New("injected")
	for _, failAt := range append([]string{""}, shared...) {
		t.Run("fail="+failAt, func(t *testing.T) {
			l := &probeLog{failAt: failAt, failErr: injected}
			db := durableDB(t, t.TempDir(), Options{FaultHook: l.hook, Yielder: l})
			defer db.Close()
			mustCreate(t, db, kvSchema("kv"))
			l.mu.Lock()
			l.armed = true
			l.mu.Unlock()

			tx := db.Begin(Serializable2PL)
			_, _, err := tx.Insert("kv", map[string]Value{"value": Str("x")})
			if err == nil {
				err = tx.Commit()
			} else {
				tx.Rollback()
			}
			if failAt == "" && err != nil {
				t.Fatalf("unfaulted transaction failed: %v", err)
			}
			if failAt != "" && !errors.Is(err, injected) {
				t.Fatalf("err = %v, want the fault injected at %s", err, failAt)
			}

			l.mu.Lock()
			entries := append([]string(nil), l.entries...)
			l.mu.Unlock()
			for _, pt := range shared {
				consulted := false
				for i, e := range entries {
					switch e {
					case "fault:" + pt:
						consulted = true
					case "yield:" + pt:
						if pt == failAt {
							t.Errorf("yield at %s despite its failing fault", pt)
						}
						if i == 0 || entries[i-1] != "fault:"+pt {
							t.Errorf("yield at %s (entry %d) not directly after its fault consult", pt, i)
						}
					}
				}
				if failAt == "" && !consulted {
					t.Errorf("point %s never reached", pt)
				}
			}
			// Past the failing point nothing runs but the abort's lock release.
			for i, e := range entries {
				if failAt == "" || e != "fault:"+failAt {
					continue
				}
				for _, later := range entries[i+1:] {
					if later != "yield:"+YieldLockRelease {
						t.Errorf("operation continued past its failing point %s: %s", failAt, later)
					}
				}
				break
			}
			t.Logf("probe sequence: %v", entries)
		})
	}
}
