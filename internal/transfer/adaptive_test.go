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

// TestLiveAdaptiveResumeAcrossTunedChunkSize: the adaptive task
// fingerprint must be stable even when the tuner's chunk answer moves
// between service instances — the second service resumes the first's
// manifest (8 KiB plan) although its own tuner now says 32 KiB.
func TestLiveAdaptiveResumeAcrossTunedChunkSize(t *testing.T) {
	iss, tok := issuerAndToken(t)
	srcRoot, dstRoot, manDir := t.TempDir(), t.TempDir(), t.TempDir()
	const chunk = 8 << 10
	payload := writeRandom(t, filepath.Join(srcRoot, "f.emdg"), 8*chunk, 11)

	svc1 := NewService(iss, &ChunkMover{
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
	svc2 := NewService(iss, &ChunkMover{
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
	svc := NewService(iss, &ChunkMover{
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
