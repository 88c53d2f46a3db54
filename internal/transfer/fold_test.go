package transfer

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"picoprobe/internal/wire"
)

// foldingSink is a memSink that folds what it landed, as the wire sink
// folds what the daemon accepted.
type foldingSink struct{ *memSink }

func (s foldingSink) Write(rel string, sp chunkSpan, src io.ReaderAt, f *fold) (string, bool, error) {
	sum, merged, err := s.memSink.Write(rel, sp, src, f)
	if err == nil {
		s.mu.Lock()
		b := bytes.Clone(s.files[rel][sp.Off : sp.Off+sp.N])
		s.mu.Unlock()
		f.add(sp.Index, b)
	}
	return sum, merged, err
}

// within runs one attempt and fails the test if it has not returned in
// d: a fold waiting for a chunk that never comes hangs the attempt.
func within(t *testing.T, d time.Duration, attempt func() (Report, error)) (Report, error) {
	t.Helper()
	type result struct {
		rep Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := attempt()
		done <- result{rep, err}
	}()
	select {
	case r := <-done:
		return r.rep, r.err
	case <-time.After(d):
		t.Fatalf("attempt still running after %v", d)
		return Report{}, nil
	}
}

// wireDaemon starts an in-process daemon behind a relay and returns its
// root, a client through the relay and the relay's Merge count.
func wireDaemon(t *testing.T, hold func(off int64)) (string, *wire.Client, *atomic.Int64) {
	t.Helper()
	srv := &wire.Server{Root: t.TempDir(), Facility: "test"}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	via, merges := relay(t, addr, false, hold)
	cl := &wire.Client{Addr: via, Timeout: 10 * time.Second}
	t.Cleanup(func() { cl.Close() })
	return srv.Root, cl, merges
}

// TestFoldChunksAcceptedOutOfOrder: the daemon's answer to chunk 0 is
// held until chunks 1–3 have been accepted, yet the folded digest is the
// file's — each chunk waits for its turn — and no Merge is sent.
func TestFoldChunksAcceptedOutOfOrder(t *testing.T) {
	const chunk = 4096
	var others atomic.Int64
	released := make(chan struct{})
	var inTime atomic.Bool
	root, cl, merges := wireDaemon(t, func(off int64) {
		if off != 0 {
			if others.Add(1) == 3 {
				close(released)
			}
			return
		}
		select {
		case <-released:
			inTime.Store(true)
			time.Sleep(50 * time.Millisecond) // chunks 1–3 reach their folds first
		case <-time.After(5 * time.Second):
		}
	})
	fx := newEngineFixture(t, 4*chunk)
	rep, err := within(t, 20*time.Second, func() (Report, error) {
		return (&ChunkMover{ChunkBytes: chunk, Streams: 4}).run(fx.task, fx.src, fx.dst, wireSink{cl})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !inTime.Load() {
		t.Fatal("chunks 1–3 were not all accepted before chunk 0")
	}
	if rep.Checksums["f.bin"] != hexSum(fx.payload) || rep.BytesMoved != 4*chunk {
		t.Errorf("checksum/bytes wrong (%d)", rep.BytesMoved)
	}
	if n := merges.Load(); n != 0 {
		t.Errorf("%d Merge frame(s) sent, want 0", n)
	}
	if landed, err := os.ReadFile(filepath.Join(root, "f.bin")); err != nil || !bytes.Equal(landed, fx.payload) {
		t.Errorf("landed bytes differ from the source (err=%v)", err)
	}
}

// TestFoldResumedFileMergesOnce: an attempt killed in the middle of a
// file leaves two of its chunks done; the next attempt skips them, so
// the file has no fold and is closed by exactly one Merge, which re-checks
// the skipped bytes.
func TestFoldResumedFileMergesOnce(t *testing.T) {
	const chunk = 4096
	root, cl, merges := wireDaemon(t, nil)
	fx := newEngineFixture(t, 4*chunk)
	e := &ChunkMover{ChunkBytes: chunk, Streams: 1, KillAfterChunks: 2}

	if _, err := e.run(fx.task, fx.src, fx.dst, wireSink{cl}); err == nil || !strings.Contains(err.Error(), "killed after 2 chunks") {
		t.Fatalf("err = %v, want the injected kill", err)
	}
	if n := merges.Load(); n != 0 {
		t.Errorf("killed attempt sent %d Merge frame(s), want 0", n)
	}
	rep, err := within(t, 20*time.Second, func() (Report, error) {
		return e.run(fx.task, fx.src, fx.dst, wireSink{cl})
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChunksSkipped != 2 || rep.ChunksMoved != 2 {
		t.Errorf("resumed skipped/moved = %d/%d, want 2/2", rep.ChunksSkipped, rep.ChunksMoved)
	}
	if n := merges.Load(); n != 1 {
		t.Errorf("resumed file sent %d Merge frame(s), want 1", n)
	}
	if rep.Checksums["f.bin"] != hexSum(fx.payload) {
		t.Error("resumed checksum wrong")
	}
	if landed, err := os.ReadFile(filepath.Join(root, "f.bin")); err != nil || !bytes.Equal(landed, fx.payload) {
		t.Errorf("landed bytes differ from the source (err=%v)", err)
	}
}

// TestFoldAbortWakesWaitingChunk: chunk 0's write fails while chunk 1,
// landed, waits for its turn to fold. The attempt returns chunk 0's error
// promptly — the failure wakes the waiting fold, so no worker is left
// waiting — with no checksum and no merge.
func TestFoldAbortWakesWaitingChunk(t *testing.T) {
	const chunk = 1024
	fx := newEngineFixture(t, 2*chunk)
	sk := foldingSink{newMemSink()}
	boom := errors.New("chunk 0 refused")
	landing1 := make(chan struct{})
	sk.before = func(sp chunkSpan) error {
		if sp.Index == 1 {
			close(landing1)
			return nil
		}
		<-landing1
		time.Sleep(20 * time.Millisecond) // chunk 1 lands and waits on its fold
		return boom
	}
	rep, err := within(t, 5*time.Second, func() (Report, error) {
		return (&ChunkMover{ChunkBytes: chunk, Streams: 2}).run(fx.task, fx.src, fx.dst, sk)
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want chunk 0's", err)
	}
	if rep.Checksums != nil || rep.BytesMoved != 0 || rep.ChunksMoved != 1 {
		t.Errorf("aborted attempt reported sums=%v bytes=%d moved=%d, want nil/0/1", rep.Checksums, rep.BytesMoved, rep.ChunksMoved)
	}
	if n := sk.count("m f.bin"); n != 0 {
		t.Errorf("aborted attempt merged %d time(s), want 0", n)
	}
}

// statGrowingSink appends to the daemon's copy of rel just before its
// second Stat — the one that closes a folded file.
type statGrowingSink struct {
	sink
	path  string
	stats atomic.Int64
}

func (s *statGrowingSink) Stat(rels []string) ([]int64, error) {
	if s.stats.Add(1) == 2 {
		f, err := os.OpenFile(s.path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			return nil, err
		}
		_, err = f.Write([]byte("late"))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
	}
	return s.sink.Stat(rels)
}

// TestFoldSizeCheckFailsGrownFile: a folded file that grew between its
// last write and its close is not exactly the bytes the fold digested,
// so the attempt fails and reports no checksum.
func TestFoldSizeCheckFailsGrownFile(t *testing.T) {
	const chunk = 4096
	root, cl, merges := wireDaemon(t, nil)
	fx := newEngineFixture(t, 3*chunk)
	sk := &statGrowingSink{sink: wireSink{cl}, path: filepath.Join(root, "f.bin")}
	rep, err := within(t, 20*time.Second, func() (Report, error) {
		return (&ChunkMover{ChunkBytes: chunk, Streams: 2}).run(fx.task, fx.src, fx.dst, sk)
	})
	if err == nil || !strings.Contains(err.Error(), "holds 12292 bytes") {
		t.Fatalf("err = %v, want the size check's", err)
	}
	if rep.Checksums != nil || rep.BytesMoved != 0 {
		t.Errorf("failed attempt reported sums=%v bytes=%d, want nil/0", rep.Checksums, rep.BytesMoved)
	}
	if n := merges.Load(); n != 0 {
		t.Errorf("%d Merge frame(s) sent, want 0", n)
	}
}
