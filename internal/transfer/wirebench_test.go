package transfer

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"picoprobe/internal/auth"
	"picoprobe/internal/wire"
)

// benchWorld is the benchmark twin of wireWorld: a daemon on loopback
// and a service whose mover ships chunks over the socket.
type benchWorld struct {
	srcRoot string
	dstRoot string
	mover   *ChunkMover
	svc     *Service
	tok     string
}

func newBenchWorld(b *testing.B, chunkBytes int64, streams int, opts Options) *benchWorld {
	b.Helper()
	iss := auth.NewIssuer([]byte("bench"), nil)
	tok, err := iss.Issue("bench@anl.gov", []string{auth.ScopeTransfer}, time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	w := &benchWorld{srcRoot: b.TempDir(), dstRoot: b.TempDir(), tok: tok}
	srv := &wire.Server{Root: w.dstRoot, Facility: "bench"}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })

	w.mover = &ChunkMover{
		ChunkBytes:  chunkBytes,
		Streams:     streams,
		ManifestDir: filepath.Join(w.srcRoot, ".manifests"),
		Land:        &WireLanding{Token: tok, Timeout: 30 * time.Second},
	}
	b.Cleanup(func() { w.mover.Close() })
	w.svc = NewService(iss, w.mover, time.Now, opts)
	w.svc.RegisterEndpoint(Endpoint{ID: "src", Root: w.srcRoot})
	w.svc.RegisterEndpoint(Endpoint{ID: "dst", Root: addr})
	return w
}

func (w *benchWorld) stage(b *testing.B, rel string, data []byte) {
	b.Helper()
	path := filepath.Join(w.srcRoot, rel)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
}

func (w *benchWorld) move(b *testing.B, rel string, want TaskStatus) TaskView {
	b.Helper()
	return w.moveAll(b, []FileSpec{{RelPath: rel}}, want)
}

// moveAll submits one task of several files and waits for it to reach want.
func (w *benchWorld) moveAll(b *testing.B, files []FileSpec, want TaskStatus) TaskView {
	b.Helper()
	id, err := w.svc.Submit(w.tok, "src", "dst", files)
	if err != nil {
		b.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		view, err := w.svc.Status(w.tok, id)
		if err != nil {
			b.Fatal(err)
		}
		if view.Status == want {
			return view
		}
		if view.Status != StatusActive {
			b.Fatalf("task %s reached %s (%s), want %s", id, view.Status, view.Error, want)
		}
		time.Sleep(time.Millisecond)
	}
	b.Fatalf("task %s never reached %s", id, want)
	return TaskView{}
}

// BenchmarkWireThroughput moves a 4 MiB file over a loopback daemon per
// iteration (256 KiB chunks, 4 streams, per-chunk SHA-256 plus verified
// merge) — the end-to-end goodput of the full wire data path including
// framing, checksumming, and manifest bookkeeping.
func BenchmarkWireThroughput(b *testing.B) {
	const size = 4 << 20
	w := newBenchWorld(b, 256<<10, 4, Options{})
	data := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(data)

	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rel := fmt.Sprintf("bench/%d.bin", i)
		w.stage(b, rel, data)
		b.StartTimer()
		w.move(b, rel, StatusSucceeded)
	}
}

// BenchmarkWireBatch moves one task of 8 files × 4 MiB per iteration
// (1 MiB chunks, so 4 chunks a file; 4 streams; per-chunk SHA-256 plus
// verified merge) — the burst-large batch shape at a size bench-smoke can
// afford. Unlike the one-file benchmark above it sees the dispatch order
// across files and the overlap of merges with chunks still shipping.
func BenchmarkWireBatch(b *testing.B) {
	const files, size = 8, 4 << 20
	w := newBenchWorld(b, 1<<20, 4, Options{})
	data := make([]byte, size)
	rand.New(rand.NewSource(3)).Read(data)

	b.SetBytes(files * size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		specs := make([]FileSpec, files)
		for f := range specs {
			specs[f].RelPath = fmt.Sprintf("batch/%d/%d.bin", i, f)
			w.stage(b, specs[f].RelPath, data)
		}
		b.StartTimer()
		w.moveAll(b, specs, StatusSucceeded)
	}
}

// BenchmarkWireReconnectResume measures the resume path: each iteration
// first runs a transfer that the mover kills after half the chunks
// (untimed), then times the resumed transfer that hash-verifies the
// landed half remotely and ships only the missing half. The per-op time
// is the retry cost the manifest machinery is designed to bound.
func BenchmarkWireReconnectResume(b *testing.B) {
	const size = 2 << 20 // 8 chunks of 256 KiB
	data := make([]byte, size)
	rand.New(rand.NewSource(2)).Read(data)

	b.SetBytes(size / 2) // the half actually re-moved
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// A fresh world per iteration: the mover's injected kill is
		// one-shot per instance. One stream, so the kill fires after
		// exactly 4 chunks — with parallel streams the in-flight chunks
		// would land too.
		w := newBenchWorld(b, 256<<10, 1, Options{MaxAttempts: 1})
		rel := fmt.Sprintf("resume/%d.bin", i)
		w.stage(b, rel, data)
		w.mover.KillAfterChunks = 4
		w.move(b, rel, StatusFailed)
		w.mover.KillAfterChunks = 0
		b.StartTimer()
		view := w.move(b, rel, StatusSucceeded)
		if view.ChunksSkipped != 4 || view.ChunksMoved != 4 {
			b.Fatalf("resume skipped/moved = %d/%d, want 4/4", view.ChunksSkipped, view.ChunksMoved)
		}
	}
}
