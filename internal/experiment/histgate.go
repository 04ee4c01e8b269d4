package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"feralcc/internal/anomalywatch"
	"feralcc/internal/histcheck"
)

// WitnessDirEnv names the environment variable that, when set, receives one
// JSONL history file per failed history check — the artifact CI uploads for
// post-mortem (`feralcheck <file>` re-runs the verdict offline).
const WitnessDirEnv = "HISTCHECK_WITNESS_DIR"

// verifyHistory is the offline isolation gate: rep is the checker's report on
// the operation history a cell recorded, and the cell fails when that history
// contains an anomaly its isolation level proscribes. Admitted anomalies (the
// ones the paper *measures* at weak levels) pass — the gate proves the engine
// delivers the isolation it claims, not that weak levels are strong.
func verifyHistory(label string, events []histcheck.Event, rep *histcheck.Report) error {
	if rep.Pass() {
		return nil
	}
	where := saveWitness(label, events)
	if where != "" {
		where = " (history saved to " + where + ")"
	}
	return fmt.Errorf("experiment: %s: isolation check failed%s:\n%s", label, where, rep)
}

// verifyLiveParity compares the live windowed checker's verdict against the
// offline checker's report on the same cell (a nil watcher — LiveCheck off —
// passes). On a clean run (no shed events, no
// window truncation) the two must report exactly the same anomaly classes —
// the live checker's central correctness claim. Once events were shed or a
// transaction was evicted while it still carried dependency state, the
// windowed verdict is explicitly best-effort (that is what the
// window_truncated counter is for) and the gate stands down rather than
// demand what a bounded window cannot prove.
func verifyLiveParity(w *anomalywatch.Watcher, label string, rep *histcheck.Report) error {
	if w == nil {
		return nil
	}
	w.Drain()
	st := w.Stats()
	if st.Shed != 0 || st.Truncated != 0 {
		return nil
	}
	live, offline := w.Classes(), rep.Classes()
	for _, c := range live {
		// An rw retarget means detection ran over a transient edge the final
		// graph lacks, so a live-only class is explainable; the live checker
		// must still find everything offline does (the graph converges).
		if !slices.Contains(offline, c) && st.Retargets == 0 {
			return fmt.Errorf("experiment: %s: live checker reported %s, absent from the offline report", label, c)
		}
	}
	for _, c := range offline {
		if !slices.Contains(live, c) {
			return fmt.Errorf("experiment: %s: offline checker found %s the live checker missed on a clean window (no shed, no truncation)", label, c)
		}
	}
	return nil
}

// saveWitness writes the failing history as JSONL under $HISTCHECK_WITNESS_DIR
// and returns the path, or "" when the variable is unset or the write fails
// (witness capture must never mask the underlying failure).
func saveWitness(label string, events []histcheck.Event) string {
	dir := os.Getenv(WitnessDirEnv)
	if dir == "" {
		return ""
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ""
	}
	path := filepath.Join(dir, sanitizeLabel(label)+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	fmt.Fprintf(f, "# feralcc history witness: %s\n", label)
	if err := histcheck.WriteJSONL(f, events); err != nil {
		return ""
	}
	return path
}

// sanitizeLabel maps a cell label onto the characters safe in a file name —
// the witness file's and the durable cell directory's.
func sanitizeLabel(label string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '-'
		}
	}, label)
}
