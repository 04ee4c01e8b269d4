package main

import (
	"bytes"
	"os"
	"testing"

	"feralcc/internal/core"
)

// TestPaperOutputGolden pins, byte for byte, what
//
//	feralbench -experiment table1,table2,fig1,fig6,fig7,safety,frameworks,overload -quick -seed 2015 -metrics=false
//
// prints (2015 is the default seed): the corpus tables and figures, the Section 6
// survey (decided by the hunt's deterministic scheduler) and the overload
// simulator. Every one of them is deterministic, so any moved number is a
// change in what the reproduction reports: re-capture the golden with the
// command above on purpose, and say why in EXPERIMENTS.md. Figures 2–5,
// ssibug and isolevels run wall-clock races and are not pinned here.
func TestPaperOutputGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/paper_quick_seed2015.golden")
	if err != nil {
		t.Fatal(err)
	}
	study := core.NewStudy()
	study.Seed, study.Quick = 2015, true
	var got bytes.Buffer
	ids := []string{"table1", "table2", "fig1", "fig6", "fig7", "safety", "frameworks", "overload"}
	if err := runAll(study, ids, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("paper output differs from testdata/paper_quick_seed2015.golden at line %d:\n got %q\nwant %q", i+1, g, w)
			}
		}
	}
}
