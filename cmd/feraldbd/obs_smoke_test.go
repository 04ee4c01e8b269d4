package main

// Smoke test for the observability endpoints: start feraldbd with
// -metrics-addr, drive a few statements (one slow one) through the wire, and
// assert /metrics is well-formed Prometheus text with the load visible in it,
// /statusz is JSON, /debug/pprof answers, and the slow-query log produced
// exactly one line for the offending statement. `make check` runs this.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"feralcc/internal/obs"
	"feralcc/internal/storage"
	"feralcc/internal/wire"
)

func TestObsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs a subprocess")
	}
	scratch := t.TempDir()
	bin := filepath.Join(scratch, "feraldbd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-data-dir", filepath.Join(scratch, "data"),
		"-metrics-addr", "127.0.0.1:0",
		"-slow-query", "1ns")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	// The daemon logs both bound addresses; scan for them and keep a tally of
	// slow-query lines, draining stderr so the child never blocks.
	addrCh := make(chan string, 1)
	metricsCh := make(chan string, 1)
	var logMu sync.Mutex
	var slowLines []string
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addrCh <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
			if i := strings.Index(line, "metrics on "); i >= 0 {
				select {
				case metricsCh <- strings.TrimSpace(line[i+len("metrics on "):]):
				default:
				}
			}
			if strings.Contains(line, "slow query") {
				logMu.Lock()
				slowLines = append(slowLines, line)
				logMu.Unlock()
			}
		}
	}()
	waitAddr := func(ch chan string, what string) string {
		select {
		case a := <-ch:
			return a
		case <-time.After(10 * time.Second):
			t.Fatalf("feraldbd never reported its %s address", what)
			return ""
		}
	}
	addr := waitAddr(addrCh, "listen")
	metricsAddr := waitAddr(metricsCh, "metrics")

	// The bound address is logged before the HTTP mux necessarily accepts
	// requests; poll until the observability listener answers rather than
	// racing the first real GET against server startup.
	healthDeadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(fmt.Sprintf("http://%s/statusz", metricsAddr))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(healthDeadline) {
			t.Fatalf("observability endpoint never became healthy: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Generate load that exercises the series the scrape must show: commits
	// (autocommit inserts through the WAL under sync=always) and plan-cache
	// hits (the INSERT is re-planned once, then hit repeatedly).
	c, err := wire.DialTimeout(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec("CREATE TABLE kv (id BIGINT PRIMARY KEY, key TEXT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Exec("INSERT INTO kv (key) VALUES (?)", storage.Str("k")); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	c.Close()

	get := func(path string) []byte {
		url := fmt.Sprintf("http://%s%s", metricsAddr, path)
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, err %v", url, resp.StatusCode, err)
		}
		return body
	}

	// /metrics must be valid Prometheus text with the load visible.
	scrape := get("/metrics")
	if err := obs.LintPrometheus(bytes.NewReader(scrape)); err != nil {
		t.Fatalf("scrape failed lint: %v\n%s", err, scrape)
	}
	for _, series := range []string{
		"feraldb_storage_commits_total",
		"feraldb_storage_commit_seconds_count",
		"feraldb_storage_wal_appends_total",
		"feraldb_storage_wal_fsyncs_total",
		"feraldb_storage_wal_fsync_seconds_count",
		"feraldb_statement_seconds_count",
		"feraldb_plancache_hits_total",
		"feraldb_plancache_misses_total",
		"feraldb_wire_read_bytes_total",
		"feraldb_wire_written_bytes_total",
		// The commit pipeline's group-commit instruments: every autocommit
		// insert flows through group commit (sync=always is the default),
		// so frames, batched transactions and the batch-size histogram must
		// all be live after the load.
		"feraldb_storage_group_commit_frames_total",
		"feraldb_storage_group_commit_txns_total",
		"feraldb_storage_group_commit_batch_txns_count",
	} {
		if !nonZeroSeries(scrape, series) {
			t.Errorf("series %s missing or zero after load:\n%s", series, scrape)
		}
	}

	// /statusz must be JSON describing the server.
	var status map[string]any
	if err := json.Unmarshal(get("/statusz"), &status); err != nil {
		t.Fatalf("statusz not JSON: %v", err)
	}
	if status["addr"] != addr {
		t.Fatalf("statusz addr = %v, want %v", status["addr"], addr)
	}

	// /debug/pprof must answer (the heap profile in its text form).
	if heap := get("/debug/pprof/heap?debug=1"); !bytes.Contains(heap, []byte("heap profile")) {
		t.Fatalf("pprof heap endpoint returned unexpected body: %.100s", heap)
	}

	// With -slow-query 1ns every statement is slow: exactly one line each,
	// carrying a trace ID and at least one span. The lines arrive through the
	// async stderr scanner, so poll up to a deadline instead of asserting an
	// instantaneous count, then hold the count stable long enough to catch
	// overshoot (duplicate logging) as well as undershoot.
	const stmts = 11 // CREATE + 10 INSERTs
	lineCount := func() int {
		logMu.Lock()
		defer logMu.Unlock()
		return len(slowLines)
	}
	logDeadline := time.Now().Add(10 * time.Second)
	for lineCount() < stmts && time.Now().Before(logDeadline) {
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // would catch extra, duplicated lines
	logMu.Lock()
	defer logMu.Unlock()
	if len(slowLines) != stmts {
		t.Fatalf("expected %d slow-query lines, got %d:\n%s",
			stmts, len(slowLines), strings.Join(slowLines, "\n"))
	}
	for _, line := range slowLines {
		if !strings.Contains(line, "trace=") || !strings.Contains(line, "exec=") {
			t.Fatalf("slow-query line missing trace ID or span breakdown: %s", line)
		}
	}
	// The INSERT traces must break the commit down into the pipeline stages:
	// validation, writer-queue wait, group-fsync wait, and ordered install.
	for _, span := range []string{
		"commit_validate=", "commit_enqueue=", "commit_fsync_wait=", "commit_install=",
	} {
		found := false
		for _, line := range slowLines {
			if strings.Contains(line, span) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no slow-query line carries the %s pipeline span:\n%s",
				strings.TrimSuffix(span, "="), strings.Join(slowLines, "\n"))
		}
	}
}

// nonZeroSeries reports whether the scrape contains the named series with a
// value other than 0.
func nonZeroSeries(scrape []byte, series string) bool {
	for _, line := range strings.Split(string(scrape), "\n") {
		if !strings.HasPrefix(line, series) {
			continue
		}
		rest := strings.TrimPrefix(line, series)
		if len(rest) == 0 || rest[0] != ' ' {
			continue
		}
		if v := strings.TrimSpace(rest); v != "0" && v != "0.0" {
			return true
		}
	}
	return false
}
