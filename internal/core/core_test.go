package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"feralcc/internal/db"
	"feralcc/internal/experiment"
	"feralcc/internal/faultinject"
	"feralcc/internal/storage"
)

func quickStudy() *Study {
	s := NewStudy()
	s.Quick = true
	s.ThinkTime = time.Millisecond
	return s
}

func TestStudyAnalysisIsCachedAndCorrect(t *testing.T) {
	s := NewStudy()
	a1 := s.Analysis()
	a2 := s.Analysis()
	if a1 != a2 {
		t.Fatal("analysis not cached")
	}
	if len(s.Counts()) != 67 || len(s.Corpus().Apps) != 67 {
		t.Fatal("corpus size wrong")
	}
}

func TestRenderTables(t *testing.T) {
	s := NewStudy()
	var buf bytes.Buffer
	s.RenderTable1(&buf)
	out := buf.String()
	for _, want := range []string{
		"validates_presence_of", "1762", "validates_uniqueness_of", "440",
		"86.9%", "36.6%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q", want)
		}
	}
	buf.Reset()
	s.RenderTable2(&buf)
	out = buf.String()
	for _, want := range []string{"Canvas LMS", "Obtvse", "29.07", "52.31"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 output missing %q", want)
		}
	}
	buf.Reset()
	s.RenderFigure1(&buf)
	if !strings.Contains(buf.String(), "average") {
		t.Error("Figure 1 output missing average row")
	}
	buf.Reset()
	s.RenderSafety(&buf)
	if !strings.Contains(buf.String(), "42 I-confluent, 18 not") {
		t.Errorf("safety output wrong:\n%s", buf.String())
	}
}

func TestQuickStressEndToEnd(t *testing.T) {
	s := quickStudy()
	points, err := s.RunUniquenessStress()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderStress(&buf, points)
	if !strings.Contains(buf.String(), "Figure 2") {
		t.Error("render missing title")
	}
}

func TestQuickHistoryAndAuthorship(t *testing.T) {
	s := quickStudy()
	var buf bytes.Buffer
	RenderHistory(&buf, s.RunHistory(4))
	if !strings.Contains(buf.String(), "Figure 6") {
		t.Error("history render missing title")
	}
	buf.Reset()
	RenderAuthorship(&buf, s.RunAuthorship())
	out := buf.String()
	if !strings.Contains(out, "42.4%") || !strings.Contains(out, "20.3%") {
		t.Error("authorship render missing paper references")
	}
}

func TestQuickFrameworkSurvey(t *testing.T) {
	// want[framework] lists, per race and level, whether the hunt admits the
	// race's anomaly: duplicates at RC, orphans at RC, duplicates at
	// SERIALIZABLE, orphans at SERIALIZABLE. READ COMMITTED admits what no
	// in-database constraint stops; SERIALIZABLE stops it too wherever the
	// framework wraps validate-then-save in a transaction.
	want := map[string][4]bool{
		"Rails":     {true, true, false, false},
		"JPA":       {false, true, false, false},
		"Hibernate": {false, true, false, false},
		"CakePHP":   {true, true, true, true},
		"Laravel":   {true, true, true, true},
		"Django":    {false, false, false, false},
		"Waterline": {false, false, false, false},
	}
	s := quickStudy()
	verdicts, err := s.RunFrameworkSurvey()
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 4*len(want) {
		t.Fatalf("framework verdicts = %d, want %d", len(verdicts), 4*len(want))
	}
	got := map[string][4]bool{}
	for _, v := range verdicts {
		cell := map[string]int{"uniqueness": 0, "association": 1}[v.Race]
		if v.Level == storage.Serializable {
			cell += 2
		}
		row := got[v.Profile.Name]
		row[cell] = v.Outcome.Found
		got[v.Profile.Name] = row
		if v.Outcome.EngineBug {
			t.Errorf("%s %s@%v: the engine broke its isolation contract", v.Profile.Name, v.Race, v.Level)
		}
		if !v.Outcome.Found && v.Outcome.Schedules != frameworkSurveyBudget {
			t.Errorf("%s %s@%v: not found after %d schedules, want the full budget %d",
				v.Profile.Name, v.Race, v.Level, v.Outcome.Schedules, frameworkSurveyBudget)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("verdicts (dup RC, orphan RC, dup SER, orphan SER):\n got  %v\n want %v", got, want)
	}

	var first, second bytes.Buffer
	RenderFrameworkSurvey(&first, verdicts)
	again, err := s.RunFrameworkSurvey()
	if err != nil {
		t.Fatal(err)
	}
	RenderFrameworkSurvey(&second, again)
	if first.String() != second.String() {
		t.Errorf("two survey runs rendered differently:\n%s\n---\n%s", first.String(), second.String())
	}
	for _, line := range []string{
		"Rails      uniqueness   READ COMMITTED  admitted (schedule ",
		"Rails      uniqueness   SERIALIZABLE    not found in 50 schedules",
		"CakePHP    association  SERIALIZABLE    admitted (schedule ",
	} {
		if !strings.Contains(first.String(), line) {
			t.Errorf("survey output missing %q:\n%s", line, first.String())
		}
	}
}

func TestQuickSSIBugRender(t *testing.T) {
	s := quickStudy()
	res, err := s.RunSSIBug()
	if err != nil {
		t.Fatal(err)
	}
	if res.DuplicatesCorrect != 0 {
		t.Errorf("correct serializable admitted %d duplicates", res.DuplicatesCorrect)
	}
	var buf bytes.Buffer
	RenderSSIBug(&buf, res)
	if !strings.Contains(buf.String(), "11732") {
		t.Error("ssi bug render missing bug number")
	}
}

func TestConfigScaling(t *testing.T) {
	full := NewStudy()
	quick := quickStudy()
	if len(quick.StressConfig().Workers) >= len(full.StressConfig().Workers) {
		t.Error("quick mode should sweep fewer worker counts")
	}
	if quick.WorkloadConfig().OpsPerClient >= full.WorkloadConfig().OpsPerClient {
		t.Error("quick mode should issue fewer ops")
	}
	if quick.AssociationStressConfig().Departments >= full.AssociationStressConfig().Departments {
		t.Error("quick mode should use fewer departments")
	}
	if len(quick.AssociationWorkloadConfig().DepartmentCounts) >= len(full.AssociationWorkloadConfig().DepartmentCounts) {
		t.Error("quick mode should sweep fewer department counts")
	}
}

// TestConfigsShareOneCellEnv pins that every setting feralbench's
// cross-cutting flags write reaches every experiment config, identically: no
// figure drops -data-dir, -sync, -faults, -check-history, -live-check or
// -think.
func TestConfigsShareOneCellEnv(t *testing.T) {
	s := quickStudy()
	s.Seed = 7
	s.ThinkTime = 3 * time.Millisecond
	s.DataDir, s.Sync = "/some/dir", "always"
	s.CheckHistory, s.LiveCheck = true, true
	spec, err := faultinject.ParseSpec("drop=0.01")
	if err != nil {
		t.Fatal(err)
	}
	s.Faults = spec
	want := experiment.CellEnv{
		ThinkTime: 3 * time.Millisecond,
		Faults:    spec, FaultSeed: 7,
		Retry:   db.RetryPolicy{MaxRetries: 5, Seed: 7},
		DataDir: "/some/dir", Sync: "always",
		CheckHistory: true, LiveCheck: true,
	}
	for name, got := range map[string]experiment.CellEnv{
		"StressConfig":              s.StressConfig().CellEnv,
		"WorkloadConfig":            s.WorkloadConfig().CellEnv,
		"AssociationStressConfig":   s.AssociationStressConfig().CellEnv,
		"AssociationWorkloadConfig": s.AssociationWorkloadConfig().CellEnv,
		"env (isolevels, ssibug)":   s.env(),
	} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s carries %+v, want %+v", name, got, want)
		}
	}
}
