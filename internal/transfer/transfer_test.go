package transfer

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"picoprobe/internal/auth"
)

func issuerAndToken(t *testing.T) (*auth.Issuer, string) {
	t.Helper()
	iss := auth.NewIssuer([]byte("test"), nil)
	tok, err := iss.Issue("user@anl.gov", []string{auth.ScopeTransfer}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return iss, tok
}

func waitFor(t *testing.T, svc *Service, tok, id string, want TaskStatus) TaskView {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		view, err := svc.Status(tok, id)
		if err != nil {
			t.Fatal(err)
		}
		if view.Status != StatusActive {
			if view.Status != want {
				t.Fatalf("status = %s (%s), want %s", view.Status, view.Error, want)
			}
			return view
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("timed out waiting for task")
	return TaskView{}
}

// TestMoversCopyAndVerify: the basic transfer on both movers — files land
// byte-identical, chunk accounting is exact, and the reported checksums
// are the real whole-file SHA-256s the verified merge computed.
func TestMoversCopyAndVerify(t *testing.T) {
	forBothMovers(t, func(t *testing.T, w *world) {
		os.MkdirAll(filepath.Join(w.srcRoot, "runs"), 0o755)
		a := writeRandom(t, filepath.Join(w.srcRoot, "runs/a.emdg"), 4096+100, 1) // 5 chunks, last partial
		b := writeRandom(t, filepath.Join(w.srcRoot, "b.emdg"), 2048, 2)          // 2 chunks exactly
		svc := w.service(t, &ChunkMover{ChunkBytes: 1024, Streams: 1}, Options{})
		id, err := svc.Submit(w.tok, "src", "dst", []FileSpec{{RelPath: "runs/a.emdg"}, {RelPath: "b.emdg"}})
		if err != nil {
			t.Fatal(err)
		}
		view := waitFor(t, svc, w.tok, id, StatusSucceeded)
		if view.BytesMoved != int64(len(a)+len(b)) {
			t.Errorf("bytes moved = %d, want %d", view.BytesMoved, len(a)+len(b))
		}
		if view.ChunksTotal != 7 || view.ChunksMoved != 7 || view.ChunksSkipped != 0 {
			t.Errorf("chunks total/moved/skipped = %d/%d/%d, want 7/7/0",
				view.ChunksTotal, view.ChunksMoved, view.ChunksSkipped)
		}
		if view.Completed.Before(view.Started) {
			t.Error("completed before started")
		}
		for rel, want := range map[string][]byte{"runs/a.emdg": a, "b.emdg": b} {
			got, err := os.ReadFile(filepath.Join(w.dstRoot, rel))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s landed corrupted", rel)
			}
			sum := sha256.Sum256(want)
			if view.Checksums[rel] != hex.EncodeToString(sum[:]) {
				t.Errorf("%s checksum = %s, want %s", rel, view.Checksums[rel], hex.EncodeToString(sum[:]))
			}
		}
	})
}

func TestMissingFileFailsAfterRetries(t *testing.T) {
	forBothMovers(t, func(t *testing.T, w *world) {
		svc := w.service(t, &ChunkMover{}, Options{MaxAttempts: 2})
		id, err := svc.Submit(w.tok, "src", "dst", []FileSpec{{RelPath: "missing.emdg"}})
		if err != nil {
			t.Fatal(err)
		}
		view := waitFor(t, svc, w.tok, id, StatusFailed)
		if view.Attempts != 2 {
			t.Errorf("attempts = %d, want 2", view.Attempts)
		}
		if view.Error == "" {
			t.Error("failed task should carry an error")
		}
	})
}

func TestAuthEnforced(t *testing.T) {
	iss, _ := issuerAndToken(t)
	svc := NewService(iss, &ChunkMover{}, time.Now, Options{})
	svc.RegisterEndpoint(Endpoint{ID: "a", Root: t.TempDir()})
	svc.RegisterEndpoint(Endpoint{ID: "b", Root: t.TempDir()})
	// No token.
	if _, err := svc.Submit("", "a", "b", []FileSpec{{RelPath: "x"}}); err == nil {
		t.Error("tokenless submit accepted")
	}
	// Token without the transfer scope.
	bad, _ := iss.Issue("user", []string{auth.ScopeCompute}, time.Hour)
	if _, err := svc.Submit(bad, "a", "b", []FileSpec{{RelPath: "x"}}); err == nil {
		t.Error("wrong-scope submit accepted")
	}
	if _, err := svc.Status(bad, "xfer-000001"); err == nil {
		t.Error("wrong-scope status accepted")
	}
}

func TestSubmitValidation(t *testing.T) {
	iss, tok := issuerAndToken(t)
	svc := NewService(iss, &ChunkMover{}, time.Now, Options{})
	svc.RegisterEndpoint(Endpoint{ID: "a", Root: t.TempDir()})
	if _, err := svc.Submit(tok, "a", "nope", []FileSpec{{RelPath: "x"}}); err == nil {
		t.Error("unknown destination accepted")
	}
	if _, err := svc.Submit(tok, "nope", "a", []FileSpec{{RelPath: "x"}}); err == nil {
		t.Error("unknown source accepted")
	}
	if _, err := svc.Submit(tok, "a", "a", nil); err == nil {
		t.Error("empty file list accepted")
	}
	if _, err := svc.Status(tok, "bogus"); err == nil {
		t.Error("unknown task accepted")
	}
	if err := svc.RegisterEndpoint(Endpoint{ID: "a"}); err == nil {
		t.Error("duplicate endpoint accepted")
	}
	if err := svc.RegisterEndpoint(Endpoint{}); err == nil {
		t.Error("empty endpoint ID accepted")
	}
}

// TestZeroValueMoverVerifies: verification is not a setting. A mover
// nobody configured still hashes every chunk and runs the verified merge,
// so the task carries the file's real whole-file digest.
func TestZeroValueMoverVerifies(t *testing.T) {
	iss, tok := issuerAndToken(t)
	srcRoot, dstRoot := t.TempDir(), t.TempDir()
	os.WriteFile(filepath.Join(srcRoot, "f"), []byte("data"), 0o644)
	svc := NewService(iss, &ChunkMover{}, time.Now, Options{})
	svc.RegisterEndpoint(Endpoint{ID: "src", Root: srcRoot})
	svc.RegisterEndpoint(Endpoint{ID: "dst", Root: dstRoot})
	id, _ := svc.Submit(tok, "src", "dst", []FileSpec{{RelPath: "f"}})
	view := waitFor(t, svc, tok, id, StatusSucceeded)
	if want := hexSum([]byte("data")); view.Checksums["f"] != want {
		t.Errorf("zero-value mover reported digest %q, want sha256(file) %s", view.Checksums["f"], want)
	}
}

func TestTasksSnapshot(t *testing.T) {
	iss, tok := issuerAndToken(t)
	srcRoot, dstRoot := t.TempDir(), t.TempDir()
	os.WriteFile(filepath.Join(srcRoot, "f"), []byte("x"), 0o644)
	svc := NewService(iss, &ChunkMover{}, time.Now, Options{})
	svc.RegisterEndpoint(Endpoint{ID: "src", Root: srcRoot})
	svc.RegisterEndpoint(Endpoint{ID: "dst", Root: dstRoot})
	id, _ := svc.Submit(tok, "src", "dst", []FileSpec{{RelPath: "f"}})
	waitFor(t, svc, tok, id, StatusSucceeded)
	if got := svc.Tasks(); len(got) != 1 || got[0].ID != id {
		t.Errorf("Tasks() = %+v", got)
	}
}

// --- chunk engine tests ----------------------------------------------

func wholeSHA256(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

func writeRandom(t *testing.T, path string, n int, seed int64) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	payload := make([]byte, n)
	rng.Read(payload)
	if err := os.WriteFile(path, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestChunkedCopyMatchesWholeFile pins the degeneracy the rework promises:
// a chunked multi-stream copy produces byte-identical destination content
// and the identical whole-file checksum as the whole-file single-stream
// configuration (which is itself the pre-chunking behavior).
func TestChunkedCopyMatchesWholeFile(t *testing.T) {
	iss, tok := issuerAndToken(t)
	srcRoot := t.TempDir()
	payload := writeRandom(t, filepath.Join(srcRoot, "burst.emdg"), 100_001, 1) // odd size: remainder chunk
	want := wholeSHA256(t, filepath.Join(srcRoot, "burst.emdg"))

	configs := []ChunkMover{
		{}, // degenerate: whole file, single stream
		{ChunkBytes: 4 << 10, Streams: 1},
		{ChunkBytes: 4 << 10, Streams: 4},
		{ChunkBytes: 1 << 20, Streams: 3}, // chunk > file: single chunk again
	}
	for i := range configs {
		dstRoot := t.TempDir()
		svc := NewService(iss, &configs[i], time.Now, Options{})
		svc.RegisterEndpoint(Endpoint{ID: "src", Root: srcRoot})
		svc.RegisterEndpoint(Endpoint{ID: "dst", Root: dstRoot})
		id, err := svc.Submit(tok, "src", "dst", []FileSpec{{RelPath: "burst.emdg"}})
		if err != nil {
			t.Fatal(err)
		}
		view := waitFor(t, svc, tok, id, StatusSucceeded)
		got, err := os.ReadFile(filepath.Join(dstRoot, "burst.emdg"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("config %d: content mismatch", i)
		}
		if view.BytesMoved != int64(len(payload)) || view.BytesCopied != int64(len(payload)) {
			t.Errorf("config %d: moved=%d copied=%d", i, view.BytesMoved, view.BytesCopied)
		}
		if sum := wholeSHA256(t, filepath.Join(dstRoot, "burst.emdg")); sum != want {
			t.Errorf("config %d: checksum drifted", i)
		}
	}
}

// TestMultiFileChunkedTask moves several files in one task (the shape the
// watcher's batcher produces) through the chunk engine.
func TestMultiFileChunkedTask(t *testing.T) {
	iss, tok := issuerAndToken(t)
	srcRoot, dstRoot := t.TempDir(), t.TempDir()
	sizes := []int{10_000, 1, 65_536}
	var specs []FileSpec
	var total int64
	payloads := map[string][]byte{}
	for i, n := range sizes {
		rel := filepath.Join("burst", fmt.Sprintf("f%d.emdg", i))
		os.MkdirAll(filepath.Join(srcRoot, "burst"), 0o755)
		payloads[rel] = writeRandom(t, filepath.Join(srcRoot, rel), n, int64(i+10))
		specs = append(specs, FileSpec{RelPath: rel})
		total += int64(n)
	}
	svc := NewService(iss, &ChunkMover{ChunkBytes: 8 << 10, Streams: 3}, time.Now, Options{})
	svc.RegisterEndpoint(Endpoint{ID: "src", Root: srcRoot})
	svc.RegisterEndpoint(Endpoint{ID: "dst", Root: dstRoot})
	id, err := svc.Submit(tok, "src", "dst", specs)
	if err != nil {
		t.Fatal(err)
	}
	view := waitFor(t, svc, tok, id, StatusSucceeded)
	if view.BytesMoved != total {
		t.Errorf("bytes moved = %d, want %d", view.BytesMoved, total)
	}
	for rel, want := range payloads {
		got, err := os.ReadFile(filepath.Join(dstRoot, rel))
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: content mismatch (err=%v)", rel, err)
		}
	}
}

// TestKillMidTransferResumesInService is the kill-mid-transfer pin: an
// attempt dies after 3 of 8 chunks, the service's retry resumes from the
// manifest, and the retry cost is exactly the remaining chunks — every
// byte of the file crosses the wire exactly once.
func TestKillMidTransferResumesInService(t *testing.T) {
	forBothMovers(t, func(t *testing.T, w *world) {
		const chunk = 8 << 10
		payload := writeRandom(t, filepath.Join(w.srcRoot, "f.emdg"), 8*chunk, 2)
		svc := w.service(t, &ChunkMover{ChunkBytes: chunk, Streams: 1, KillAfterChunks: 3}, Options{MaxAttempts: 2})
		id, err := svc.Submit(w.tok, "src", "dst", []FileSpec{{RelPath: "f.emdg"}})
		if err != nil {
			t.Fatal(err)
		}
		view := waitFor(t, svc, w.tok, id, StatusSucceeded)
		if view.Attempts != 2 {
			t.Errorf("attempts = %d, want 2", view.Attempts)
		}
		if view.ChunksTotal != 8 || view.ChunksMoved != 8 || view.ChunksSkipped != 3 {
			t.Errorf("chunks total/moved/skipped = %d/%d/%d, want 8/8/3",
				view.ChunksTotal, view.ChunksMoved, view.ChunksSkipped)
		}
		if view.BytesCopied != int64(len(payload)) {
			t.Errorf("bytes copied = %d, want %d (resume must not re-copy verified chunks)",
				view.BytesCopied, len(payload))
		}
		got, err := os.ReadFile(filepath.Join(w.dstRoot, "f.emdg"))
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("content mismatch after resume (err=%v)", err)
		}
	})
}

// TestManifestResumesAcrossServices pins resume across a service restart:
// service 1 dies mid-transfer (task FAILED, manifest persisted), a brand
// new service with a fresh mover over the same manifest directory is
// handed the same task and re-moves only the unverified chunks.
func TestManifestResumesAcrossServices(t *testing.T) {
	forBothMovers(t, func(t *testing.T, w *world) {
		const chunk = 8 << 10
		payload := writeRandom(t, filepath.Join(w.srcRoot, "f.emdg"), 8*chunk, 3)

		svc1 := w.service(t, &ChunkMover{
			ChunkBytes: chunk, Streams: 1,
			ManifestDir: w.manDir, KillAfterChunks: 3,
		}, Options{MaxAttempts: 1})
		id1, err := svc1.Submit(w.tok, "src", "dst", []FileSpec{{RelPath: "f.emdg"}})
		if err != nil {
			t.Fatal(err)
		}
		v1 := waitFor(t, svc1, w.tok, id1, StatusFailed)
		if v1.ChunksMoved != 3 {
			t.Fatalf("first service moved %d chunks, want 3", v1.ChunksMoved)
		}

		// "Reboot": everything about the first service is gone except the
		// manifest directory and the partially landed destination file.
		svc2 := w.service(t, &ChunkMover{
			ChunkBytes: chunk, Streams: 1, ManifestDir: w.manDir,
		}, Options{})
		id2, err := svc2.Submit(w.tok, "src", "dst", []FileSpec{{RelPath: "f.emdg"}})
		if err != nil {
			t.Fatal(err)
		}
		v2 := waitFor(t, svc2, w.tok, id2, StatusSucceeded)
		if v2.ChunksSkipped != 3 || v2.ChunksMoved != 5 {
			t.Errorf("resumed skipped/moved = %d/%d, want 3/5", v2.ChunksSkipped, v2.ChunksMoved)
		}
		if v2.BytesCopied != int64(5*chunk) {
			t.Errorf("resumed bytes copied = %d, want %d", v2.BytesCopied, 5*chunk)
		}
		got, err := os.ReadFile(filepath.Join(w.dstRoot, "f.emdg"))
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("content mismatch after cross-service resume (err=%v)", err)
		}
		if entries, err := os.ReadDir(w.manDir); err != nil || len(entries) != 0 {
			t.Errorf("manifest not cleaned up after success: %d files (err=%v)", len(entries), err)
		}
	})
}

// TestResumeRecopiesCorruptedChunk: a chunk the manifest claims verified
// but whose destination bytes no longer match is demoted and re-copied,
// not trusted.
func TestResumeRecopiesCorruptedChunk(t *testing.T) {
	forBothMovers(t, func(t *testing.T, w *world) {
		const chunk = 8 << 10
		payload := writeRandom(t, filepath.Join(w.srcRoot, "f.emdg"), 4*chunk, 4)

		svc1 := w.service(t, &ChunkMover{
			ChunkBytes: chunk, Streams: 1,
			ManifestDir: w.manDir, KillAfterChunks: 3,
		}, Options{MaxAttempts: 1})
		id1, _ := svc1.Submit(w.tok, "src", "dst", []FileSpec{{RelPath: "f.emdg"}})
		waitFor(t, svc1, w.tok, id1, StatusFailed)

		// Corrupt the second landed chunk on disk.
		f, err := os.OpenFile(filepath.Join(w.dstRoot, "f.emdg"), os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("CORRUPTED"), chunk+100); err != nil {
			t.Fatal(err)
		}
		f.Close()

		svc2 := w.service(t, &ChunkMover{
			ChunkBytes: chunk, Streams: 1, ManifestDir: w.manDir,
		}, Options{})
		id2, _ := svc2.Submit(w.tok, "src", "dst", []FileSpec{{RelPath: "f.emdg"}})
		v2 := waitFor(t, svc2, w.tok, id2, StatusSucceeded)
		if v2.ChunksSkipped != 2 || v2.ChunksMoved != 2 {
			t.Errorf("skipped/moved = %d/%d, want 2/2 (corrupted chunk must be re-copied)",
				v2.ChunksSkipped, v2.ChunksMoved)
		}
		got, err := os.ReadFile(filepath.Join(w.dstRoot, "f.emdg"))
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("content mismatch after corruption recovery (err=%v)", err)
		}
	})
}

// TestResumeRemovesUndigestedDoneChunks: a manifest on disk is input from
// outside the program. One written by an older binary with verification
// off marks chunks done with no digest; the resume cannot verify those, so
// it re-moves exactly them and keeps the digested ones.
func TestResumeRemovesUndigestedDoneChunks(t *testing.T) {
	forBothMovers(t, func(t *testing.T, w *world) {
		const chunk = 8 << 10
		payload := writeRandom(t, filepath.Join(w.srcRoot, "f.emdg"), 8*chunk, 8)

		svc1 := w.service(t, &ChunkMover{
			ChunkBytes: chunk, Streams: 1,
			ManifestDir: w.manDir, KillAfterChunks: 3,
		}, Options{MaxAttempts: 1})
		id1, _ := svc1.Submit(w.tok, "src", "dst", []FileSpec{{RelPath: "f.emdg"}})
		waitFor(t, svc1, w.tok, id1, StatusFailed)

		// Rewrite the persisted manifest the way the parent's Checksum=false
		// mover left it: chunk 1 done, no digest.
		entries, err := os.ReadDir(w.manDir)
		if err != nil || len(entries) != 1 {
			t.Fatalf("manifest dir holds %d files (err=%v), want 1", len(entries), err)
		}
		manPath := filepath.Join(w.manDir, entries[0].Name())
		raw, err := os.ReadFile(manPath)
		if err != nil {
			t.Fatal(err)
		}
		var man manifest
		if err := json.Unmarshal(raw, &man); err != nil {
			t.Fatal(err)
		}
		if c := man.Files[0].Chunks[1]; !c.Done || c.SHA256 == "" {
			t.Fatalf("chunk 1 before the rewrite = %+v, want done with a digest", c)
		}
		man.Files[0].Chunks[1].SHA256 = ""
		if raw, err = json.Marshal(&man); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(manPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}

		svc2 := w.service(t, &ChunkMover{
			ChunkBytes: chunk, Streams: 1, ManifestDir: w.manDir,
		}, Options{})
		id2, _ := svc2.Submit(w.tok, "src", "dst", []FileSpec{{RelPath: "f.emdg"}})
		v2 := waitFor(t, svc2, w.tok, id2, StatusSucceeded)
		if v2.ChunksSkipped != 2 || v2.ChunksMoved != 6 {
			t.Errorf("skipped/moved = %d/%d, want 2/6 (the undigested chunk must be re-moved)",
				v2.ChunksSkipped, v2.ChunksMoved)
		}
		if want := hexSum(payload); v2.Checksums["f.emdg"] != want {
			t.Errorf("resumed digest %q, want %s", v2.Checksums["f.emdg"], want)
		}
		got, err := os.ReadFile(filepath.Join(w.dstRoot, "f.emdg"))
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("content mismatch after the resume (err=%v)", err)
		}
	})
}

// TestChunkPoolConcurrentTasks hammers the chunk worker pool and the
// shared manifest store with concurrent tasks (run under -race in CI).
func TestChunkPoolConcurrentTasks(t *testing.T) {
	iss, tok := issuerAndToken(t)
	srcRoot, dstRoot := t.TempDir(), t.TempDir()
	mover := &ChunkMover{ChunkBytes: 4 << 10, Streams: 4, ManifestDir: t.TempDir()}
	svc := NewService(iss, mover, time.Now, Options{})
	svc.RegisterEndpoint(Endpoint{ID: "src", Root: srcRoot})
	svc.RegisterEndpoint(Endpoint{ID: "dst", Root: dstRoot})
	const tasks = 6
	ids := make([]string, tasks)
	payloads := make([][]byte, tasks)
	for i := 0; i < tasks; i++ {
		rel := fmt.Sprintf("t%d.emdg", i)
		payloads[i] = writeRandom(t, filepath.Join(srcRoot, rel), 40_000+i*777, int64(100+i))
		var err error
		ids[i], err = svc.Submit(tok, "src", "dst", []FileSpec{{RelPath: rel}})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range ids {
		waitFor(t, svc, tok, id, StatusSucceeded)
		got, err := os.ReadFile(filepath.Join(dstRoot, fmt.Sprintf("t%d.emdg", i)))
		if err != nil || !bytes.Equal(got, payloads[i]) {
			t.Errorf("task %d: content mismatch (err=%v)", i, err)
		}
	}
}

// TestResumeDetectsLostDestination: if the destination file vanishes
// between attempts, resume must NOT trust the manifest (the full-size
// file the new attempt creates is all zeros) — every chunk is re-copied.
func TestResumeDetectsLostDestination(t *testing.T) {
	forBothMovers(t, func(t *testing.T, w *world) {
		const chunk = 8 << 10
		payload := writeRandom(t, filepath.Join(w.srcRoot, "f.emdg"), 4*chunk, 6)

		svc1 := w.service(t, &ChunkMover{
			ChunkBytes: chunk, Streams: 1, ManifestDir: w.manDir, KillAfterChunks: 2,
		}, Options{MaxAttempts: 1})
		id1, _ := svc1.Submit(w.tok, "src", "dst", []FileSpec{{RelPath: "f.emdg"}})
		waitFor(t, svc1, w.tok, id1, StatusFailed)

		// The destination is lost entirely.
		if err := os.Remove(filepath.Join(w.dstRoot, "f.emdg")); err != nil {
			t.Fatal(err)
		}

		svc2 := w.service(t, &ChunkMover{
			ChunkBytes: chunk, Streams: 1, ManifestDir: w.manDir,
		}, Options{})
		id2, _ := svc2.Submit(w.tok, "src", "dst", []FileSpec{{RelPath: "f.emdg"}})
		v2 := waitFor(t, svc2, w.tok, id2, StatusSucceeded)
		if v2.ChunksSkipped != 0 || v2.ChunksMoved != 4 {
			t.Errorf("skipped/moved = %d/%d, want 0/4 (lost dst must not be trusted)",
				v2.ChunksSkipped, v2.ChunksMoved)
		}
		got, err := os.ReadFile(filepath.Join(w.dstRoot, "f.emdg"))
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("content mismatch after dst loss (err=%v)", err)
		}
	})
}

// TestRewrittenSourceInvalidatesManifest: a source file rewritten (same
// size, new content, new mtime) between attempts must not resume against
// the old content's chunks — the fingerprint changes, the transfer
// restarts, and the destination matches the NEW source.
func TestRewrittenSourceInvalidatesManifest(t *testing.T) {
	iss, tok := issuerAndToken(t)
	srcRoot, dstRoot, manDir := t.TempDir(), t.TempDir(), t.TempDir()
	const chunk = 8 << 10
	srcPath := filepath.Join(srcRoot, "f.emdg")
	writeRandom(t, srcPath, 4*chunk, 7)
	os.Chtimes(srcPath, time.Unix(1000, 0), time.Unix(1000, 0))

	svc1 := NewService(iss, &ChunkMover{
		ChunkBytes: chunk, Streams: 1,
		ManifestDir: manDir, KillAfterChunks: 2,
	}, time.Now, Options{MaxAttempts: 1})
	svc1.RegisterEndpoint(Endpoint{ID: "src", Root: srcRoot})
	svc1.RegisterEndpoint(Endpoint{ID: "dst", Root: dstRoot})
	id1, _ := svc1.Submit(tok, "src", "dst", []FileSpec{{RelPath: "f.emdg"}})
	waitFor(t, svc1, tok, id1, StatusFailed)

	// Rewrite the source: same size, different bytes, different mtime.
	newPayload := writeRandom(t, srcPath, 4*chunk, 8)
	os.Chtimes(srcPath, time.Unix(2000, 0), time.Unix(2000, 0))

	svc2 := NewService(iss, &ChunkMover{
		ChunkBytes: chunk, Streams: 1, ManifestDir: manDir,
	}, time.Now, Options{})
	svc2.RegisterEndpoint(Endpoint{ID: "src", Root: srcRoot})
	svc2.RegisterEndpoint(Endpoint{ID: "dst", Root: dstRoot})
	id2, _ := svc2.Submit(tok, "src", "dst", []FileSpec{{RelPath: "f.emdg"}})
	v2 := waitFor(t, svc2, tok, id2, StatusSucceeded)
	if v2.ChunksSkipped != 0 || v2.ChunksMoved != 4 {
		t.Errorf("skipped/moved = %d/%d, want 0/4 (rewritten source must not resume)",
			v2.ChunksSkipped, v2.ChunksMoved)
	}
	got, err := os.ReadFile(filepath.Join(dstRoot, "f.emdg"))
	if err != nil || !bytes.Equal(got, newPayload) {
		t.Errorf("destination does not match the rewritten source (err=%v)", err)
	}
}
