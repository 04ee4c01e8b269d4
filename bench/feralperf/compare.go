package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// resultsFile accumulates runs; -results appends one per workload run.
type resultsFile struct {
	Runs []runRecord `json:"runs"`
}

type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

func readResults(path string) (*resultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

func appendResult(path, workload string, cfg config, res *result) error {
	rf, err := readResults(path)
	if errors.Is(err, fs.ErrNotExist) {
		rf = &resultsFile{}
	} else if err != nil {
		return err
	}
	rf.Runs = append(rf.Runs, runRecord{Workload: workload, Seed: cfg.seed, Trace: cfg.trace, result: *res})
	raw, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// values collects one metric of one workload over a file's untraced runs.
func (rf *resultsFile) values(workload, name string) []float64 {
	var xs []float64
	for _, r := range rf.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// gives (the exclusive method), which is what the benchmark's acceptance rule
// is written in. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n := len(xs)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median, or 0 when
// there are too few runs to have one.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(xs)
	if m := median(xs); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

// compareFiles applies each end-to-end metric's direction and bound to the
// medians of two result files, a the parent and b the change, and prints one
// row per (metric, workload) pair:
//
//	worse       b's median is worse than a's by more than the bound
//	unresolved  not worse, but either side's run-to-run spread exceeds the bound
//	better      b's median is better than a's by more than the bound
//	unchanged   otherwise
//
// It reports whether any pair is worse.
func compareFiles(w io.Writer, benchmarkPath, pathA, pathB string) (bool, error) {
	bf, err := readBenchmarkFile(benchmarkPath)
	if err != nil {
		return false, err
	}
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	anyWorse := false
	fmt.Fprintf(w, "%-14s %-16s %5s %12s %7s %5s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "runs", "median a", "iqr a", "runs", "median b", "iqr b", "change", "bound", "verdict")
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			xa, xb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(w, "%-14s %-16s missing from one side\n", wl.Name, m.Name)
				continue
			}
			ma, mb := median(xa), median(xb)
			sa, sb := spread(xa), spread(xb)
			change := (mb - ma) / ma
			worsening := change
			if m.Better == "higher" {
				worsening = -change
			}
			verdict := "unchanged"
			switch {
			case worsening > m.Bound:
				verdict = "worse"
				anyWorse = true
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			case worsening < -m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-14s %-16s %5d %12.4f %6.1f%% %5d %12.4f %6.1f%% %+7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, len(xa), ma, 100*sa, len(xb), mb, 100*sb, 100*change, 100*m.Bound, verdict)
		}
	}
	return anyWorse, nil
}
