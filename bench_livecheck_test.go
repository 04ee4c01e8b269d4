// Live-checker overhead benchmark (PR 9). The sub-benchmark grid crosses the
// anomaly watcher's sample rate (off, 1%, 10%, 100%) with the number of
// concurrent committers. Each committer performs disjoint single-row inserts
// against an in-memory store — the cheapest possible commit path, so whatever
// the watcher costs shows up as the largest possible relative regression. The
// acceptance bar is ≤5% commit-throughput regression at 1% sampling;
// EXPERIMENTS.md quotes the one recorded run of the grid.
package feralcc_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"feralcc/internal/anomalywatch"
	"feralcc/internal/storage"
)

func BenchmarkLiveCheckOverhead(b *testing.B) {
	rates := []struct {
		name string
		rate float64
	}{
		{"off", 0},
		{"0.01", 0.01},
		{"0.10", 0.10},
		{"1.00", 1.00},
	}
	for _, r := range rates {
		for _, workers := range []int{1, 4, 8} {
			name := fmt.Sprintf("sample=%s/goroutines=%d", r.name, workers)
			b.Run(name, func(b *testing.B) {
				benchLiveCheckOverhead(b, r.rate, workers)
			})
		}
	}
}

func benchLiveCheckOverhead(b *testing.B, rate float64, workers int) {
	opts := storage.Options{}
	if rate > 0 {
		// A fixed seed keeps the sampled-transaction population identical
		// across runs of the same cell.
		opts.LiveCheck = &anomalywatch.Config{SampleRate: rate, Seed: 1}
	}
	store := storage.Open(opts)
	defer store.Close()
	if err := store.CreateTable(&storage.Schema{Name: "accounts", Columns: []storage.Column{
		{Name: "id", Kind: storage.KindInt, PrimaryKey: true},
		{Name: "balance", Kind: storage.KindInt},
	}}); err != nil {
		b.Fatal(err)
	}

	next := int64(-1)
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := atomic.AddInt64(&next, 1)
				if i >= int64(b.N) {
					break
				}
				tx := store.BeginDefault()
				if _, _, err := tx.Insert("accounts", map[string]storage.Value{
					"balance": storage.Int(i),
				}); err != nil {
					tx.Rollback()
					b.Error(err)
					return
				}
				if err := tx.Commit(); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()

	// The never-block-commit contract, visible in the artifact: whatever the
	// ring sheds under benchmark pressure is a count, not a stall.
	if w := store.Watcher(); w != nil {
		st := w.Stats()
		b.ReportMetric(float64(st.Sampled), "sampled-txns")
		b.ReportMetric(float64(st.Shed), "shed-events")
	}
}
