package transfer

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testTuner is a mutable RouteTuner: tests flip its answer mid-task (via
// kernel events) or between attempts and assert the engines track it.
type testTuner struct {
	mu      sync.Mutex
	streams int
	chunk   int64
}

func (tt *testTuner) set(streams int, chunk int64) {
	tt.mu.Lock()
	tt.streams, tt.chunk = streams, chunk
	tt.mu.Unlock()
}

func (tt *testTuner) Tune() (int, int64) {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	return tt.streams, tt.chunk
}

// TestSimAdaptiveTunerFraming: a tuner supplies the framing the fixed
// flags would have — the timing must be exactly the fixed-flag timing
// (the analytic case from TestSimChunkedMultiStreamTiming).
func TestSimAdaptiveTunerFraming(t *testing.T) {
	tuner := &testTuner{streams: 2, chunk: 10_000_000}
	files := []FileSpec{{RelPath: "f", Bytes: 80_000_000}}
	view := simTransfer(t, Route{
		StreamCap: 80e6, SetupTime: time.Second, Tuner: tuner,
	}, files, nil)
	got := view.Completed.Sub(view.Submitted)
	want := time.Second + 4*time.Second // setup + 4 rounds of 2 parallel 1 s chunks
	if diff := got - want; diff < -100*time.Millisecond || diff > 100*time.Millisecond {
		t.Errorf("tuned transfer took %v, want ~%v", got, want)
	}
	if view.ChunksTotal != 8 || view.ChunksMoved != 8 {
		t.Errorf("chunks = %d/%d, want 8/8", view.ChunksMoved, view.ChunksTotal)
	}
}

// TestSimAdaptiveNoOpinionMatchesFixed pins the "0 means no opinion"
// contract: a tuner that answers (0, 0) leaves the route's fixed framing
// in force, bit-identical to running without a tuner.
func TestSimAdaptiveNoOpinionMatchesFixed(t *testing.T) {
	files := []FileSpec{{RelPath: "f", Bytes: 80_000_000}}
	base := Route{StreamCap: 80e6, SetupTime: time.Second, ChunkBytes: 10_000_000, Streams: 2}
	fixed := simTransfer(t, base, files, nil)
	tuned := base
	tuned.Tuner = &testTuner{} // no opinion
	adaptive := simTransfer(t, tuned, files, nil)
	d1 := fixed.Completed.Sub(fixed.Submitted)
	d2 := adaptive.Completed.Sub(adaptive.Submitted)
	if d1 != d2 {
		t.Errorf("no-opinion tuner changed timing: %v vs %v", d2, d1)
	}
}

// TestSimAdaptiveWindowWidensMidTask: the tuner's stream answer widens
// while a transfer is in flight and the launch loop picks it up between
// chunks. 8 chunks of 1 s at one stream until t=5.5 s, four streams
// after: chunks 0-4 drain sequentially (done t=2..6), then the remaining
// three launch together and land at t=7 — against 9 s if the window had
// stayed fixed.
func TestSimAdaptiveWindowWidensMidTask(t *testing.T) {
	tuner := &testTuner{streams: 1, chunk: 10_000_000}
	files := []FileSpec{{RelPath: "f", Bytes: 80_000_000}}
	view := simTransfer(t, Route{
		StreamCap: 80e6, SetupTime: time.Second, Tuner: tuner,
	}, files, func(m *SimMover) {
		m.Kernel.After(5500*time.Millisecond, func() { tuner.set(4, 10_000_000) })
	})
	got := view.Completed.Sub(view.Submitted)
	want := 7 * time.Second
	if diff := got - want; diff < -100*time.Millisecond || diff > 100*time.Millisecond {
		t.Errorf("mid-task widened transfer took %v, want ~%v (window must re-read the tuner)", got, want)
	}
	if view.ChunksMoved != 8 || view.Status != StatusSucceeded {
		t.Errorf("chunks moved = %d status = %s", view.ChunksMoved, view.Status)
	}
}

// TestSimAdaptiveRetryPinsChunkPlan: the first attempt plans 10 MB
// chunks and dies after 3; before the retry the tuner's chunk answer
// quadruples. The resume must replay the RECORDED plan — skip exactly
// the 3 landed chunks and move the remaining 5 at 10 MB — not re-plan at
// the new size (which would orphan the completed ordinals).
func TestSimAdaptiveRetryPinsChunkPlan(t *testing.T) {
	tuner := &testTuner{streams: 1, chunk: 10_000_000}
	files := []FileSpec{{RelPath: "f", Bytes: 80_000_000}}
	view := simTransfer(t, Route{
		StreamCap: 80e6, SetupTime: 2 * time.Second, Tuner: tuner,
	}, files, func(m *SimMover) {
		m.FailAfterChunks = 3
		// The first attempt fails at t=7 s; re-tune before the retry's
		// seeding call (post-setup, t=9 s).
		m.Kernel.After(8*time.Second, func() { tuner.set(1, 40_000_000) })
	})
	if view.Status != StatusSucceeded || view.Attempts != 2 {
		t.Fatalf("status=%s attempts=%d, want SUCCEEDED/2", view.Status, view.Attempts)
	}
	got := view.Completed.Sub(view.Submitted)
	want := 2*time.Second + 3*time.Second + 2*time.Second + 5*time.Second
	if diff := got - want; diff < -100*time.Millisecond || diff > 100*time.Millisecond {
		t.Errorf("retry took %v, want ~%v (resume must keep the recorded 10 MB plan)", got, want)
	}
	if view.ChunksSkipped != 3 || view.ChunksMoved != 8 {
		t.Errorf("skipped/moved = %d/%d, want 3/8", view.ChunksSkipped, view.ChunksMoved)
	}
	if view.BytesCopied != 80_000_000 {
		t.Errorf("bytes copied = %d, want 80000000", view.BytesCopied)
	}
}

// TestLiveAdaptiveResumeAcrossTunedChunkSize: the adaptive task
// fingerprint must be stable even when the tuner's chunk answer moves
// between service instances — the second service resumes the first's
// manifest (8 KiB plan) although its own tuner now says 32 KiB.
func TestLiveAdaptiveResumeAcrossTunedChunkSize(t *testing.T) {
	iss, tok := issuerAndToken(t)
	srcRoot, dstRoot, manDir := t.TempDir(), t.TempDir(), t.TempDir()
	const chunk = 8 << 10
	payload := writeRandom(t, filepath.Join(srcRoot, "f.emdg"), 8*chunk, 11)

	svc1 := NewService(iss, &LiveMover{
		Tuner:       &testTuner{streams: 1, chunk: chunk},
		ManifestDir: manDir, KillAfterChunks: 3,
	}, time.Now, Options{MaxAttempts: 1})
	svc1.RegisterEndpoint(Endpoint{ID: "src", Root: srcRoot})
	svc1.RegisterEndpoint(Endpoint{ID: "dst", Root: dstRoot})
	id1, err := svc1.Submit(tok, "src", "dst", []FileSpec{{RelPath: "f.emdg"}})
	if err != nil {
		t.Fatal(err)
	}
	v1 := waitFor(t, svc1, tok, id1, StatusFailed)
	if v1.ChunksMoved != 3 {
		t.Fatalf("first service moved %d chunks, want 3", v1.ChunksMoved)
	}

	// New service, new tuner opinion: the fingerprint pins the adaptive
	// MODE, so the 8 KiB manifest still matches and its plan wins.
	svc2 := NewService(iss, &LiveMover{
		Tuner:       &testTuner{streams: 2, chunk: 4 * chunk},
		ManifestDir: manDir,
	}, time.Now, Options{})
	svc2.RegisterEndpoint(Endpoint{ID: "src", Root: srcRoot})
	svc2.RegisterEndpoint(Endpoint{ID: "dst", Root: dstRoot})
	id2, err := svc2.Submit(tok, "src", "dst", []FileSpec{{RelPath: "f.emdg"}})
	if err != nil {
		t.Fatal(err)
	}
	v2 := waitFor(t, svc2, tok, id2, StatusSucceeded)
	if v2.ChunksSkipped != 3 || v2.ChunksMoved != 5 {
		t.Errorf("resumed skipped/moved = %d/%d, want 3/5", v2.ChunksSkipped, v2.ChunksMoved)
	}
	if v2.BytesCopied != int64(5*chunk) {
		t.Errorf("resumed bytes copied = %d, want %d", v2.BytesCopied, 5*chunk)
	}
	got, err := os.ReadFile(filepath.Join(dstRoot, "f.emdg"))
	if err != nil || !bytes.Equal(got, payload) {
		t.Errorf("content mismatch after adaptive cross-service resume (err=%v)", err)
	}
	if entries, err := os.ReadDir(manDir); err != nil || len(entries) != 0 {
		t.Errorf("manifest not cleaned up after success: %d files (err=%v)", len(entries), err)
	}
}

// TestLiveAdaptiveDispatchUnderChurn hammers the adaptive dispatcher:
// a tuner whose stream answer oscillates on every call while 64 chunks
// stream through the worker pool. Run under -race this is the live
// engine's concurrency gate; the content check proves no chunk was
// dropped or double-written.
func TestLiveAdaptiveDispatchUnderChurn(t *testing.T) {
	iss, tok := issuerAndToken(t)
	srcRoot, dstRoot := t.TempDir(), t.TempDir()
	const chunk = 4 << 10
	payload := writeRandom(t, filepath.Join(srcRoot, "f.emdg"), 64*chunk, 13)

	var calls atomic.Int64
	churn := tunerFunc(func() (int, int64) {
		n := calls.Add(1)
		return int(n%8) + 1, chunk
	})
	svc := NewService(iss, &LiveMover{
		Tuner: churn,
	}, time.Now, Options{})
	svc.RegisterEndpoint(Endpoint{ID: "src", Root: srcRoot})
	svc.RegisterEndpoint(Endpoint{ID: "dst", Root: dstRoot})
	id, err := svc.Submit(tok, "src", "dst", []FileSpec{{RelPath: "f.emdg"}})
	if err != nil {
		t.Fatal(err)
	}
	v := waitFor(t, svc, tok, id, StatusSucceeded)
	if v.ChunksMoved != 64 || v.ChunksTotal != 64 {
		t.Errorf("chunks = %d/%d, want 64/64", v.ChunksMoved, v.ChunksTotal)
	}
	got, err := os.ReadFile(filepath.Join(dstRoot, "f.emdg"))
	if err != nil || !bytes.Equal(got, payload) {
		t.Errorf("content mismatch under churning tuner (err=%v)", err)
	}
}

// tunerFunc adapts a function to RouteTuner.
type tunerFunc func() (int, int64)

func (f tunerFunc) Tune() (int, int64) { return f() }
