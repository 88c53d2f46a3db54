package transfer

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"picoprobe/internal/landing"
)

// memSink is an in-memory sink for driving the engine alone: honest
// about bytes and digests, with hooks to stall, fail or mis-merge on
// cue, and a log of every chunk it landed.
type memSink struct {
	mu     sync.Mutex
	files  map[string][]byte
	writes []chunkSpan // completed writes, in completion order

	// before, when set, runs at the top of every Write outside the lock; a
	// non-nil error fails that write before anything lands.
	before func(sp chunkSpan) error
	// badMerge, when >= 0, is reported by the next Merge, once.
	badMerge int
}

func newMemSink() *memSink { return &memSink{files: map[string][]byte{}, badMerge: -1} }

func (s *memSink) Stat(rels []string) ([]int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sizes := make([]int64, len(rels))
	for i, rel := range rels {
		sizes[i] = -1
		if b, ok := s.files[rel]; ok {
			sizes[i] = int64(len(b))
		}
	}
	return sizes, nil
}

func (s *memSink) Prepare(rel string, size int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := make([]byte, size)
	copy(b, s.files[rel])
	s.files[rel] = b
	return nil
}

func (s *memSink) Write(rel string, sp chunkSpan, src io.ReaderAt) (string, error) {
	if s.before != nil {
		if err := s.before(sp); err != nil {
			return "", err
		}
	}
	buf := make([]byte, sp.N)
	if _, err := io.ReadFull(io.NewSectionReader(src, sp.Off, sp.N), buf); err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	copy(s.files[rel][sp.Off:], buf)
	s.writes = append(s.writes, sp)
	return hexSum(buf), nil
}

func (s *memSink) Hash(rel string, off, n int64) (string, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.files[rel]
	if int64(len(b)) < off+n {
		return "", false, nil
	}
	return hexSum(b[off : off+n]), true, nil
}

func (s *memSink) Merge(rel string, chunks []landing.Chunk) (string, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if bad := s.badMerge; bad >= 0 {
		s.badMerge = -1
		return "", bad, nil
	}
	return hexSum(s.files[rel]), -1, nil
}

// engineFixture is one source file and the endpoints to move it between.
type engineFixture struct {
	payload  []byte
	task     *Task
	src, dst *Endpoint
}

func newEngineFixture(t *testing.T, size int) *engineFixture {
	t.Helper()
	srcRoot := t.TempDir()
	return &engineFixture{
		payload: writeRandom(t, filepath.Join(srcRoot, "f.bin"), size, 31),
		task:    &Task{ID: "t", Files: []FileSpec{{RelPath: "f.bin"}}},
		src:     &Endpoint{ID: "src", Root: srcRoot},
		dst:     &Endpoint{ID: "dst"},
	}
}

// doneChunks counts the chunks the engine's only manifest records done.
func doneChunks(t *testing.T, e *engine) int {
	t.Helper()
	e.manifests.mu.Lock()
	defer e.manifests.mu.Unlock()
	if len(e.manifests.mem) != 1 {
		t.Fatalf("engine holds %d manifests, want 1", len(e.manifests.mem))
	}
	n := 0
	for _, m := range e.manifests.mem {
		for _, c := range m.Files[0].Chunks {
			if c.Done {
				n++
			}
		}
	}
	return n
}

// TestEngineKillIsOneShot: the injected kill fires once, after exactly n
// chunk completions, leaving exactly n chunks done in the manifest; the
// next attempt on the same engine skips those n and is not killed again.
func TestEngineKillIsOneShot(t *testing.T) {
	const chunk = 1024
	fx := newEngineFixture(t, 8*chunk)
	e, sk := &engine{}, newMemSink()
	cfg := moveConfig{checksum: true, chunkBytes: chunk, streams: 1, killAfterChunks: 3}

	rep, err := e.run(cfg, fx.task, fx.src, fx.dst, sk)
	if err == nil || !strings.Contains(err.Error(), "killed after 3 chunks") {
		t.Fatalf("first attempt err = %v, want the injected kill", err)
	}
	if rep.ChunksTotal != 8 || rep.ChunksMoved != 3 || rep.BytesCopied != 3*chunk {
		t.Errorf("killed attempt total/moved/copied = %d/%d/%d, want 8/3/%d",
			rep.ChunksTotal, rep.ChunksMoved, rep.BytesCopied, 3*chunk)
	}
	if n := doneChunks(t, e); n != 3 {
		t.Errorf("manifest records %d chunks done after the kill, want 3", n)
	}

	rep, err = e.run(cfg, fx.task, fx.src, fx.dst, sk)
	if err != nil {
		t.Fatalf("second attempt killed again (or failed): %v", err)
	}
	if rep.ChunksSkipped != 3 || rep.ChunksMoved != 5 || rep.BytesMoved != 8*chunk {
		t.Errorf("resumed skipped/moved/bytes = %d/%d/%d, want 3/5/%d",
			rep.ChunksSkipped, rep.ChunksMoved, rep.BytesMoved, 8*chunk)
	}
	if !bytes.Equal(sk.files["f.bin"], fx.payload) {
		t.Error("landed bytes differ from the source")
	}
	if rep.Checksums["f.bin"] != hexSum(fx.payload) {
		t.Error("whole-file checksum wrong after resume")
	}
	if len(e.manifests.mem) != 0 {
		t.Error("manifest not forgotten after success")
	}
}

// TestEngineAbortAccountingExact: with four workers in flight, one chunk
// fails while the other three are still writing. The three land after the
// abort and must all be counted — ChunksMoved and BytesCopied are what
// actually reached the sink, no more (the failed chunk) and no less.
func TestEngineAbortAccountingExact(t *testing.T) {
	const chunk = 1024
	fx := newEngineFixture(t, 3*chunk+500) // 4 chunks, the last partial
	e, sk := &engine{}, newMemSink()
	var inFlight sync.WaitGroup
	inFlight.Add(3)
	failed := make(chan struct{})
	sk.before = func(sp chunkSpan) error {
		if sp.Index == 1 {
			inFlight.Wait() // fail only once the other three are mid-write
			close(failed)
			return errors.New("disk on fire")
		}
		inFlight.Done()
		<-failed
		return nil
	}
	cfg := moveConfig{checksum: true, chunkBytes: chunk, streams: 4}

	rep, err := e.run(cfg, fx.task, fx.src, fx.dst, sk)
	if err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("err = %v, want the sink's write error", err)
	}
	if rep.ChunksMoved != 3 || rep.BytesCopied != 2*chunk+500 {
		t.Errorf("moved/copied = %d/%d, want 3/%d (every chunk that landed, nothing else)",
			rep.ChunksMoved, rep.BytesCopied, 2*chunk+500)
	}
	if len(sk.writes) != rep.ChunksMoved {
		t.Errorf("sink landed %d chunks, report says %d", len(sk.writes), rep.ChunksMoved)
	}
	if n := doneChunks(t, e); n != 3 {
		t.Errorf("manifest records %d chunks done, want 3", n)
	}

	// The retry re-sends exactly the failed chunk.
	sk.before, sk.writes = nil, nil
	rep, err = e.run(cfg, fx.task, fx.src, fx.dst, sk)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChunksSkipped != 3 || len(sk.writes) != 1 || sk.writes[0].Index != 1 {
		t.Errorf("retry skipped %d and wrote %v, want 3 skipped and only chunk 1 written", rep.ChunksSkipped, sk.writes)
	}
}

// TestEngineAdaptiveWindowRereadBetweenDispatches: the tuner says one
// stream until four chunks have landed, then three. The engine must hold
// the in-flight window at one through the first phase and widen to three
// without a new attempt — the first three writes of the second phase
// only return once all three are in flight together.
func TestEngineAdaptiveWindowRereadBetweenDispatches(t *testing.T) {
	const chunk = 1024
	fx := newEngineFixture(t, 12*chunk)
	e, sk := &engine{}, newMemSink()
	tuner := &testTuner{streams: 1, chunk: chunk}

	var (
		mu               sync.Mutex
		cur, maxNarrow   int
		maxWide, started int
		together         = make(chan struct{})
	)
	sk.before = func(sp chunkSpan) error {
		mu.Lock()
		started++
		n := started
		cur++
		if n <= 4 {
			maxNarrow = max(maxNarrow, cur)
		} else {
			maxWide = max(maxWide, cur)
			if cur == 3 && n <= 7 {
				close(together)
			}
		}
		mu.Unlock()
		defer func() {
			mu.Lock()
			cur--
			mu.Unlock()
		}()
		if n == 4 {
			tuner.set(3, chunk) // lands before this write returns: the next dispatch sees it
		}
		if n > 4 && n <= 7 {
			select {
			case <-together:
			case <-time.After(5 * time.Second):
				return fmt.Errorf("window never widened: chunk %d waited alone", sp.Index)
			}
		}
		return nil
	}
	cfg := moveConfig{checksum: true, tuner: tuner}

	rep, err := e.run(cfg, fx.task, fx.src, fx.dst, sk)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChunksMoved != 12 {
		t.Errorf("moved %d chunks, want 12", rep.ChunksMoved)
	}
	if maxNarrow != 1 {
		t.Errorf("in-flight peaked at %d while the tuner said 1 stream", maxNarrow)
	}
	if maxWide != 3 {
		t.Errorf("in-flight peaked at %d after the tuner said 3 streams, want exactly 3", maxWide)
	}
	if !bytes.Equal(sk.files["f.bin"], fx.payload) {
		t.Error("landed bytes differ from the source")
	}
}

// TestEngineDemotedChunkOnlyOneResent: the sink's merge names chunk 2 as
// not matching its recorded digest. The engine demotes exactly that chunk
// and fails the attempt; the retry skips every other chunk and re-sends
// only the demoted one.
func TestEngineDemotedChunkOnlyOneResent(t *testing.T) {
	const chunk = 1024
	fx := newEngineFixture(t, 6*chunk)
	e, sk := &engine{}, newMemSink()
	sk.badMerge = 2
	cfg := moveConfig{checksum: true, chunkBytes: chunk, streams: 2}

	rep, err := e.run(cfg, fx.task, fx.src, fx.dst, sk)
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("err = %v, want the merge's checksum mismatch", err)
	}
	if rep.ChunksMoved != 6 || rep.BytesMoved != 0 || rep.Checksums != nil {
		t.Errorf("failed merge reported moved=%d bytes=%d sums=%v, want 6/0/nil", rep.ChunksMoved, rep.BytesMoved, rep.Checksums)
	}
	if n := doneChunks(t, e); n != 5 {
		t.Errorf("manifest records %d chunks done after the demotion, want 5", n)
	}

	sk.writes = nil
	rep, err = e.run(cfg, fx.task, fx.src, fx.dst, sk)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChunksSkipped != 5 || rep.ChunksMoved != 1 || len(sk.writes) != 1 || sk.writes[0].Index != 2 {
		t.Errorf("retry skipped/moved = %d/%d writing %v, want 5/1 and only chunk 2", rep.ChunksSkipped, rep.ChunksMoved, sk.writes)
	}
	if rep.Checksums["f.bin"] != hexSum(fx.payload) {
		t.Error("whole-file checksum wrong after the re-send")
	}
}

// TestEngineSourceOpenFailureClosesEarlierFiles: when the k-th source
// cannot be opened, the k-1 already open are closed on the way out (they
// used to leak for the life of the process).
func TestEngineSourceOpenFailureClosesEarlierFiles(t *testing.T) {
	fx := newEngineFixture(t, 1024)
	fx.task.Files = append(fx.task.Files, FileSpec{RelPath: "missing.bin"})
	before := openFDs(t)
	for i := 0; i < 20; i++ {
		if _, err := (&engine{}).run(moveConfig{}, fx.task, fx.src, fx.dst, newMemSink()); err == nil {
			t.Fatal("attempt with a missing source succeeded")
		}
	}
	if after := openFDs(t); after > before {
		t.Errorf("open descriptors grew from %d to %d across 20 failed attempts", before, after)
	}
}

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open descriptors: %v", err)
	}
	return len(entries)
}
