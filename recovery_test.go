package picoprobe

// Crash recovery, end to end (DESIGN.md §9): a real portal process is
// killed with SIGKILL mid-ingest-churn and a fresh process recovering
// from the same durable directory must serve exactly what the journal
// acknowledged — bit-identical /api/search responses against a control
// index that was never killed, and the prior campaign's run records
// under /flows. BenchmarkCrashRecovery measures the replay rate and the
// time-to-first-query after such a crash (BENCHMARKS.md "Crash
// recovery").

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"picoprobe/internal/durable"
	"picoprobe/internal/flows"
	"picoprobe/internal/portal"
	"picoprobe/internal/search"
	"picoprobe/internal/sim"
)

// recoveryChildEnv carries the durable directory to the helper process;
// set, it turns TestRecoveryChildProcess into the crash victim.
const recoveryChildEnv = "PICOPROBE_RECOVERY_CHILD"

// recoveryOp applies the i-th operation (1-based, one WAL record each)
// of the deterministic churn stream to a catalog. Parent and child share
// it: the child journals the stream until it is killed, the parent
// replays the same prefix into a control index.
func recoveryOp(i int, ingest func(search.Entry) error, del func(string) error) error {
	switch {
	case i%25 == 24:
		return del(fmt.Sprintf("rec-%06d", i-10))
	case i%10 == 9:
		return ingest(recoveryEntry(i-5, fmt.Sprintf("revised gold nanoparticle map %d", i)))
	default:
		return ingest(recoveryEntry(i, fmt.Sprintf("polyamide film acquisition %d high tension", i)))
	}
}

func recoveryEntry(i int, text string) search.Entry {
	return search.Entry{
		ID:   fmt.Sprintf("rec-%06d", i),
		Text: text,
		Fields: map[string]string{
			"kind": []string{"hyperspectral", "spatiotemporal"}[i%2],
		},
		Numbers: map[string]float64{"beam_energy_kev": float64(60 + i%40)},
		Date:    time.Date(2023, time.March, 1+i%27, 12, 0, 0, 0, time.UTC),
	}
}

// recoveryRun is the deterministic run record the child journals after
// every 25th catalog op.
func recoveryRun(j int) flows.RunRecord {
	return flows.RunRecord{
		RunID:  fmt.Sprintf("run-%06d", j),
		Flow:   "hyperspectral",
		Status: flows.StateSucceeded,
		Input:  map[string]any{"file": fmt.Sprintf("hs-%d.emdg", j)},
	}
}

// TestRecoveryChildProcess is not a test: re-executed by
// TestKillNineRecovery with the env var set, it churns the durable
// catalog and run log until the parent kills it with SIGKILL.
func TestRecoveryChildProcess(t *testing.T) {
	dir := os.Getenv(recoveryChildEnv)
	if dir == "" {
		t.Skip("helper process for TestKillNineRecovery")
	}
	cat, _, err := search.OpenDurable(filepath.Join(dir, "catalog"), search.DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runlog, _, _, err := flows.OpenRunLog(filepath.Join(dir, "runs"), durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 1_000_000; i++ {
		err := recoveryOp(i, cat.Ingest, func(id string) error { _, derr := cat.Delete(id); return derr })
		if err != nil {
			t.Fatal(err)
		}
		if i%25 == 0 {
			if err := runlog.Append(recoveryRun(i / 25)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// walBytes sums the sizes of the WAL segments under dir.
func walBytes(dir string) int64 {
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	var total int64
	for _, s := range segs {
		if st, err := os.Stat(s); err == nil {
			total += st.Size()
		}
	}
	return total
}

func TestKillNineRecovery(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("SIGKILL semantics are POSIX-specific")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestRecoveryChildProcess$", "-test.v")
	cmd.Env = append(os.Environ(), recoveryChildEnv+"="+dir)
	var childOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &childOut, &childOut
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Let the churn run until a healthy amount of journal is on disk,
	// then kill -9 mid-write.
	catDir := filepath.Join(dir, "catalog")
	deadline := time.Now().Add(30 * time.Second)
	for walBytes(catDir) < 96<<10 {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("child never produced enough journal; output:\n%s", childOut.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no shutdown path runs
		t.Fatal(err)
	}
	cmd.Wait()

	// Recover the catalog. Everything the child's journal acknowledged
	// (fsync-per-append: acked == durable) must come back; a torn final
	// record may be truncated away.
	recovered, stats, err := search.OpenDurable(catDir, search.DurableOptions{})
	if err != nil {
		t.Fatalf("recovery after kill -9: %v", err)
	}
	defer recovered.Close()
	lastLSN := int(stats.LastLSN)
	if lastLSN < 100 {
		t.Fatalf("only %d ops journaled before the kill", lastLSN)
	}
	t.Logf("recovered %d catalog ops (torn tail: %v)", lastLSN, stats.TornTail)

	// The control: a never-killed in-memory index that applied exactly
	// the acknowledged prefix, sequentially.
	control := search.NewIndex()
	for i := 1; i <= lastLSN; i++ {
		err := recoveryOp(i, control.Ingest, func(id string) error { control.Delete(id); return nil })
		if err != nil {
			t.Fatal(err)
		}
	}
	if recovered.Count() != control.Count() {
		t.Fatalf("recovered %d records, control has %d", recovered.Count(), control.Count())
	}

	// Run records: every recovered record must be exactly what the
	// generator journaled for that run.
	runlog, recs, _, err := flows.OpenRunLog(filepath.Join(dir, "runs"), durable.Options{})
	if err != nil {
		t.Fatalf("run log recovery after kill -9: %v", err)
	}
	defer runlog.Close()
	if len(recs) == 0 {
		t.Fatal("no run records recovered")
	}
	for _, r := range recs {
		var j int
		if _, err := fmt.Sscanf(r.RunID, "run-%06d", &j); err != nil {
			t.Fatalf("unexpected run ID %q", r.RunID)
		}
		want := recoveryRun(j)
		if r.Flow != want.Flow || r.Status != want.Status || r.Input["file"] != want.Input["file"] {
			t.Fatalf("recovered run %s = %+v, want %+v", r.RunID, r, want)
		}
	}

	// Serve both indexes through the real portal and compare the API
	// responses byte for byte — identical hits, order AND scores.
	engine := flows.NewEngine(sim.NewLiveRuntime(1), flows.Options{})
	engine.Restore(recs)
	recoveredSrv, err := portal.NewServer(portal.Config{Index: recovered.Index(), Flows: engine})
	if err != nil {
		t.Fatal(err)
	}
	controlSrv, err := portal.NewServer(portal.Config{Index: control})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{
		"/api/search?q=polyamide+film",
		"/api/search?q=gold+nanoparticle+map&limit=50",
		"/api/search?q=high+tension&kind=hyperspectral",
		"/api/search", // match-all, recency ordered
	} {
		got := fetch(t, recoveredSrv, path)
		want := fetch(t, controlSrv, path)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: recovered response differs from never-killed control\nrecovered: %.200s\ncontrol:   %.200s",
				path, got, want)
		}
	}

	// And the restarted portal lists the prior campaign's runs.
	flowsPage := string(fetch(t, recoveredSrv, "/flows"))
	if !strings.Contains(flowsPage, recs[0].RunID) {
		t.Errorf("/flows does not list recovered run %s", recs[0].RunID)
	}
}

func fetch(t *testing.T, h http.Handler, path string) []byte {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("%s: status %d", path, rec.Code)
	}
	return rec.Body.Bytes()
}

// BenchmarkCrashRecovery measures what a kill -9 costs at restart: a
// journal of catalog churn (no snapshot — the worst case) is replayed
// from disk, and the custom metrics report the replay rate and the time
// until the first query can be served. BENCHMARKS.md "Crash recovery"
// records the numbers.
func BenchmarkCrashRecovery(b *testing.B) {
	dir := b.TempDir()
	const ops = 5000
	d, _, err := search.OpenDurable(dir, search.DurableOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 1; i <= ops; i++ {
		err := recoveryOp(i, d.Ingest, func(id string) error { _, derr := d.Delete(id); return derr })
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}

	var replayed, replayNanos, firstQueryNanos int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		re, stats, err := search.OpenDurable(dir, search.DurableOptions{})
		if err != nil {
			b.Fatal(err)
		}
		replayNanos += int64(time.Since(start))
		replayed += int64(stats.Records)
		if _, _, err := re.Index().Search(search.Query{Text: "polyamide film", Limit: 20}); err != nil {
			b.Fatal(err)
		}
		firstQueryNanos += int64(time.Since(start))
		re.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(replayed)/(float64(replayNanos)/1e9), "records/s")
	b.ReportMetric(float64(firstQueryNanos)/float64(b.N)/1e6, "ms-to-first-query")
}
