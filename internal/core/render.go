package core

import (
	"fmt"
	"io"
	"strings"

	"feralcc/internal/experiment"
	"feralcc/internal/frameworks"
)

// RenderTable1 prints the built-in validation usage table (Table 1).
func (s *Study) RenderTable1(w io.Writer) {
	rep := s.Analysis().Report
	fmt.Fprintln(w, "Table 1: Use of and invariant confluence of built-in validations")
	fmt.Fprintf(w, "%-38s %12s %12s\n", "Name", "Occurrences", "I-Confluent?")
	for _, row := range rep.Rows {
		fmt.Fprintf(w, "%-38s %12d %12s\n", row.Validator, row.Occurrences, row.Verdict)
	}
	fmt.Fprintf(w, "\nBuilt-in validations: %d; user-defined: %d (%d I-confluent, %d not)\n",
		rep.TotalBuiltIn, rep.TotalCustom, rep.CustomSafe, rep.CustomUnsafe)
	fmt.Fprintf(w, "Safe under insertion: %.1f%% (paper: 86.9%%)\n", 100*rep.SafeUnderInsertion)
	fmt.Fprintf(w, "Safe under deletion:  %.1f%% (paper: 36.6%%)\n", 100*rep.SafeUnderDeletion)
	fmt.Fprintf(w, "Uniqueness share of built-in uses: %.1f%% (paper: 12.7%%)\n", 100*rep.UniquenessShare)
}

// RenderTable2 prints the application corpus census (Table 2).
func (s *Study) RenderTable2(w io.Writer) {
	fmt.Fprintln(w, "Table 2: Corpus of applications (M models, T transactions, PL/OL locks, V validations, A associations)")
	fmt.Fprintf(w, "%-22s %5s %5s %4s %4s %5s %5s\n", "Name", "M", "T", "PL", "OL", "V", "A")
	var m, t, pl, ol, v, a int
	for _, c := range s.Counts() {
		fmt.Fprintf(w, "%-22s %5d %5d %4d %4d %5d %5d\n",
			trunc(c.App, 22), c.Models, c.Transactions, c.PessimisticLocks,
			c.OptimisticLocks, c.Validations, c.Associations)
		m += c.Models
		t += c.Transactions
		pl += c.PessimisticLocks
		ol += c.OptimisticLocks
		v += c.Validations
		a += c.Associations
	}
	n := float64(len(s.Counts()))
	fmt.Fprintf(w, "%-22s %5.2f %5.2f %4.2f %4.2f %5.2f %5.2f\n", "Average:",
		float64(m)/n, float64(t)/n, float64(pl)/n, float64(ol)/n, float64(v)/n, float64(a)/n)
	fmt.Fprintln(w, "(paper averages: 29.07, 3.84, 0.24, 0.10, 52.31, 92.87)")
}

// RenderFigure1 prints the per-application mechanism intensities (Figure 1).
func (s *Study) RenderFigure1(w io.Writer) {
	rows, avg := experiment.Figure1(s.Counts())
	fmt.Fprintln(w, "Figure 1: Use of concurrency control mechanisms per application")
	fmt.Fprintf(w, "%-22s %7s %9s %9s %9s\n", "App", "Models", "Txn/M", "Valid/M", "Assoc/M")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %7d %9.2f %9.2f %9.2f\n",
			trunc(r.App, 22), r.Models, r.TransactionsPerModel, r.ValidationsPerModel, r.AssociationsPerModel)
	}
	fmt.Fprintf(w, "%-22s %7d %9.2f %9.2f %9.2f\n",
		"average", avg.Models, avg.TransactionsPerModel, avg.ValidationsPerModel, avg.AssociationsPerModel)
}

// RenderStress prints Figure 2.
func RenderStress(w io.Writer, points []experiment.StressPoint) {
	fmt.Fprintln(w, "Figure 2: Uniqueness stress test integrity violations (duplicate records)")
	fmt.Fprintf(w, "%8s %22s %18s %18s\n", "Workers", "without validation", "with validation", "with unique index")
	for _, p := range points {
		fmt.Fprintf(w, "%8d %22d %18d %18d\n", p.Workers,
			p.Duplicates[experiment.NoValidation],
			p.Duplicates[experiment.FeralValidation],
			p.Duplicates[experiment.FeralWithIndex])
	}
}

// RenderWorkload prints Figure 3.
func RenderWorkload(w io.Writer, points []experiment.WorkloadPoint) {
	fmt.Fprintln(w, "Figure 3: Uniqueness workload integrity violations (duplicate records)")
	fmt.Fprintf(w, "%-18s %10s %20s %18s\n", "Distribution", "Keys", "without validation", "with validation")
	for _, p := range points {
		fmt.Fprintf(w, "%-18s %10d %20d %18d\n", p.Distribution, p.Keys,
			p.Duplicates[experiment.NoValidation],
			p.Duplicates[experiment.FeralValidation])
	}
}

// RenderAssociationStress prints Figure 4.
func RenderAssociationStress(w io.Writer, points []experiment.AssociationStressPoint) {
	fmt.Fprintln(w, "Figure 4: Foreign key stress association anomalies (orphaned users)")
	fmt.Fprintf(w, "%8s %22s %18s %22s\n", "Workers", "without validation", "with validation", "with in-database FK")
	for _, p := range points {
		fmt.Fprintf(w, "%8d %22d %18d %22d\n", p.Workers,
			p.Orphans[experiment.NoConstraints],
			p.Orphans[experiment.FeralAssociation],
			p.Orphans[experiment.InDatabaseFK])
	}
}

// RenderAssociationWorkload prints Figure 5.
func RenderAssociationWorkload(w io.Writer, points []experiment.AssociationWorkloadPoint) {
	fmt.Fprintln(w, "Figure 5: Foreign key workload association anomalies (orphaned users)")
	fmt.Fprintf(w, "%12s %22s %18s\n", "Departments", "without validation", "with validation")
	for _, p := range points {
		fmt.Fprintf(w, "%12d %22d %18d\n", p.Departments,
			p.Orphans[experiment.NoConstraints],
			p.Orphans[experiment.FeralAssociation])
	}
}

// RenderHistory prints Figure 6.
func RenderHistory(w io.Writer, points []experiment.HistoryPoint) {
	fmt.Fprintln(w, "Figure 6: Median % of final mechanism occurrences over normalized project history")
	fmt.Fprintf(w, "%10s %8s %8s %8s %8s\n", "History%", "Models", "Valid", "Assoc", "Txns")
	for _, p := range points {
		fmt.Fprintf(w, "%9.0f%% %7.0f%% %7.0f%% %7.0f%% %7.0f%%\n",
			100*p.Fraction, 100*p.Models, 100*p.Validations, 100*p.Associations, 100*p.Transactions)
	}
}

// RenderAuthorship prints Figure 7.
func RenderAuthorship(w io.Writer, sum experiment.AuthorshipSummary) {
	fmt.Fprintln(w, "Figure 7: Authorship concentration (average CDFs across projects)")
	fmt.Fprintf(w, "95%% of commits authored by    %.1f%% of authors (paper: 42.4%%)\n",
		100*sum.CommitAuthorShare95)
	fmt.Fprintf(w, "95%% of invariants authored by %.1f%% of authors (paper: 20.3%%)\n",
		100*sum.InvariantAuthorShare95)
	fmt.Fprintf(w, "%12s %12s %14s\n", "Authors%", "Commits%", "Invariants%")
	for i, g := range sum.Grid {
		if i%2 == 1 {
			continue
		}
		fmt.Fprintf(w, "%11.0f%% %11.1f%% %13.1f%%\n",
			100*g, 100*sum.CommitCDF[i], 100*sum.InvariantCDF[i])
	}
}

// RenderIsolationSweep prints the isolation-level extension experiment.
func RenderIsolationSweep(w io.Writer, points []experiment.IsolationSweepPoint) {
	fmt.Fprintln(w, "Extension: feral anomalies vs database isolation level")
	fmt.Fprintf(w, "%-20s %12s %10s %12s\n", "Isolation", "Duplicates", "Orphans", "Aborts")
	for _, p := range points {
		fmt.Fprintf(w, "%-20s %12d %10d %12d\n",
			p.Level, p.Duplicates, p.Orphans, p.SerializationFailures)
	}
	fmt.Fprintln(w, "Weak isolation admits anomalies; serializable levels trade them for aborts/waits.")
}

// RenderSSIBug prints the footnote 8 reproduction.
func RenderSSIBug(w io.Writer, res experiment.SSIBugResult) {
	fmt.Fprintln(w, "PostgreSQL BUG #11732 reproduction: duplicates under 'serializable' isolation")
	fmt.Fprintf(w, "%-42s %10d\n", "Serializable (correct implementation):", res.DuplicatesCorrect)
	fmt.Fprintf(w, "%-42s %10d\n", "Serializable with phantom bug:", res.DuplicatesBuggy)
	fmt.Fprintf(w, "%-42s %10d\n", "Read Committed (for comparison):", res.DuplicatesReadCommitted)
}

// RenderFrameworkSurvey prints the Section 6 survey: each profile's
// semantics, then the hunt's verdict on every (framework, race, level) cell.
func RenderFrameworkSurvey(w io.Writer, verdicts []FrameworkVerdict) {
	fmt.Fprintln(w, "Section 6: Feral validation support and susceptibility across frameworks")
	fmt.Fprintf(w, "%-10s %-8s %-9s %-7s %-7s %s\n", "Framework", "Version", "Stack", "TxnVal", "DBUniq", "DBFK")
	for _, p := range frameworks.Survey() {
		fmt.Fprintf(w, "%-10s %-8s %-9s %-7s %-7s %s\n", p.Name, p.Version, p.Stack,
			yn(p.ValidationsInTransaction), yn(p.DeclaredUniqueBecomesConstraint), yn(p.DeclaredFKBecomesConstraint))
	}
	fmt.Fprintln(w, "\nDuplicates (uniqueness race) and orphans (association race), decided by the hunt:")
	fmt.Fprintf(w, "%-10s %-12s %-15s %s\n", "Framework", "Race", "Level", "Verdict")
	for _, v := range verdicts {
		verdict := fmt.Sprintf("not found in %d schedules", v.Outcome.Schedules)
		if v.Outcome.Found {
			verdict = fmt.Sprintf("admitted (schedule %s)", v.Outcome.Schedule)
		}
		fmt.Fprintf(w, "%-10s %-12s %-15s %s\n", v.Profile.Name, v.Race, v.Level, verdict)
	}
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// RenderSafety prints the Section 4 safety summary (experiment S4).
func (s *Study) RenderSafety(w io.Writer) {
	rep := s.Analysis().Report
	fmt.Fprintln(w, "Section 4: I-confluence of corpus validation usage")
	fmt.Fprintf(w, "Total validations: %d (%d built-in + %d user-defined)\n",
		rep.TotalBuiltIn+rep.TotalCustom, rep.TotalBuiltIn, rep.TotalCustom)
	fmt.Fprintf(w, "I-confluent under insertion: %.1f%%   (paper: 86.9%%)\n", 100*rep.SafeUnderInsertion)
	fmt.Fprintf(w, "I-confluent under deletion:  %.1f%%   (paper: 36.6%%)\n", 100*rep.SafeUnderDeletion)
	fmt.Fprintf(w, "Custom validations: %d I-confluent, %d not (paper: 42/18)\n",
		rep.CustomSafe, rep.CustomUnsafe)
	fmt.Fprintln(w, strings.TrimSpace(`
Interpretation: the majority of declared invariants are safe to enforce
ferally, but uniqueness validations and association presence checks under
deletion require database coordination.`))
}
