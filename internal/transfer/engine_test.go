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
	// events interleaves completed writes ("w <rel>") and started merges
	// ("m <rel>") in the order the sink saw them.
	events []string

	// before, when set, runs at the top of every Write outside the lock; a
	// non-nil error fails that write before anything lands.
	before func(sp chunkSpan) error
	// badMerge, when >= 0, is reported by the next Merge (of badMergeRel,
	// when that is set), once.
	badMerge    int
	badMergeRel string
}

// count returns how many times event e was logged.
func (s *memSink) count(e string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, got := range s.events {
		if got == e {
			n++
		}
	}
	return n
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

func (s *memSink) Write(rel string, sp chunkSpan, src io.ReaderAt, _ *fold) (string, bool, error) {
	if s.before != nil {
		if err := s.before(sp); err != nil {
			return "", false, err
		}
	}
	buf := make([]byte, sp.N)
	if _, err := io.ReadFull(io.NewSectionReader(src, sp.Off, sp.N), buf); err != nil {
		return "", false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	copy(s.files[rel][sp.Off:], buf)
	s.writes = append(s.writes, sp)
	s.events = append(s.events, "w "+rel)
	return hexSum(buf), false, nil
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
	s.events = append(s.events, "m "+rel)
	if bad := s.badMerge; bad >= 0 && (s.badMergeRel == "" || s.badMergeRel == rel) {
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

// newEngineBatch is a task of n source files f0.bin … of size bytes each.
func newEngineBatch(t *testing.T, n, size int) (*engineFixture, [][]byte) {
	t.Helper()
	fx := &engineFixture{
		task: &Task{ID: "t"},
		src:  &Endpoint{ID: "src", Root: t.TempDir()},
		dst:  &Endpoint{ID: "dst"},
	}
	payloads := make([][]byte, n)
	for i := range payloads {
		rel := fmt.Sprintf("f%d.bin", i)
		payloads[i] = writeRandom(t, filepath.Join(fx.src.Root, rel), size, int64(40+i))
		fx.task.Files = append(fx.task.Files, FileSpec{RelPath: rel})
	}
	return fx, payloads
}

// doneChunks counts the chunks the engine's only manifest records done.
func doneChunks(t *testing.T, e *ChunkMover) int {
	t.Helper()
	e.manifests.mu.Lock()
	defer e.manifests.mu.Unlock()
	if len(e.manifests.mem) != 1 {
		t.Fatalf("engine holds %d manifests, want 1", len(e.manifests.mem))
	}
	n := 0
	for _, m := range e.manifests.mem {
		for _, f := range m.Files {
			for _, c := range f.Chunks {
				if c.Done {
					n++
				}
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
	sk := newMemSink()
	e := &ChunkMover{ChunkBytes: chunk, Streams: 1, KillAfterChunks: 3}

	rep, err := e.run(fx.task, fx.src, fx.dst, sk)
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

	rep, err = e.run(fx.task, fx.src, fx.dst, sk)
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
	sk := newMemSink()
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
	e := &ChunkMover{ChunkBytes: chunk, Streams: 4}

	rep, err := e.run(fx.task, fx.src, fx.dst, sk)
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
	rep, err = e.run(fx.task, fx.src, fx.dst, sk)
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
	sk := newMemSink()
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
	e := &ChunkMover{Tuner: tuner}

	rep, err := e.run(fx.task, fx.src, fx.dst, sk)
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
	sk := newMemSink()
	sk.badMerge = 2
	e := &ChunkMover{ChunkBytes: chunk, Streams: 2}

	rep, err := e.run(fx.task, fx.src, fx.dst, sk)
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
	rep, err = e.run(fx.task, fx.src, fx.dst, sk)
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

// TestStripedDispatchOrder pins the dispatch order: stripes of width files,
// round-robin inside a stripe, so a file's next chunk never goes out while
// another file of that stripe is still waiting for its turn. One file is
// file-major order, as before. Each file's chunks go out in ascending
// order, so the chunk a fold waits for has always been dispatched.
func TestStripedDispatchOrder(t *testing.T) {
	plan := func(chunks ...int) [][]chunkSpan {
		out := make([][]chunkSpan, len(chunks))
		for fi, n := range chunks {
			for ci := 0; ci < n; ci++ {
				out[fi] = append(out[fi], chunkSpan{File: fi, Index: ci})
			}
		}
		return out
	}
	render := func(jobs []job) string {
		var b strings.Builder
		for _, j := range jobs {
			if j.mergeOnly {
				fmt.Fprintf(&b, "m%d ", j.sp.File)
			} else {
				fmt.Fprintf(&b, "f%dc%d ", j.sp.File, j.sp.Index)
			}
		}
		return strings.TrimSpace(b.String())
	}
	for _, tc := range []struct {
		name    string
		pending [][]chunkSpan
		width   int
		want    string // "" = only the window property is checked
	}{
		{"one file is file-major", plan(4), 4, "f0c0 f0c1 f0c2 f0c3"},
		{"width one is file-major", plan(2, 2), 1, "f0c0 f0c1 f1c0 f1c1"},
		{"two files four streams alternate", plan(4, 4), 4, "f0c0 f1c0 f0c1 f1c1 f0c2 f1c2 f0c3 f1c3"},
		{"second stripe follows the first", plan(2, 2, 2, 2), 2, "f0c0 f1c0 f0c1 f1c1 f2c0 f3c0 f2c1 f3c1"},
		{"a skipped file merges at the head of its stripe", plan(2, 0, 1, 0), 2, "m1 f0c0 f0c1 m3 f2c0"},
		{"burst-large batch", plan(4, 4, 4, 4, 4, 4, 4, 4), 4, ""},
		{"uneven files", plan(4, 1, 1, 1, 3, 2), 4, ""},
		{"a resumed file's pending tail", append(plan(2), []chunkSpan{{File: 1, Index: 2}, {File: 1, Index: 3}}), 2, "f0c0 f1c2 f0c1 f1c3"},
	} {
		jobs := striped(tc.pending, tc.width)
		if tc.want != "" && render(jobs) != tc.want {
			t.Errorf("%s: order %s, want %s", tc.name, render(jobs), tc.want)
		}
		left := make([]int, len(tc.pending))
		total := 0
		for fi, spans := range tc.pending {
			left[fi] = len(spans)
			total += len(spans)
		}
		var chunks []chunkSpan
		for _, j := range jobs {
			if !j.mergeOnly {
				chunks = append(chunks, j.sp)
			}
		}
		if len(chunks) != total {
			t.Errorf("%s: %d chunks dispatched, want %d", tc.name, len(chunks), total)
		}
		last := make([]int, len(tc.pending)) // 1-based position of each file's latest chunk
		for i, sp := range chunks {
			// Round-robin: since sp's file last went, every other file of
			// its stripe that still has chunks has gone too.
			lo := sp.File / tc.width * tc.width
			for fi := lo; fi < min(lo+tc.width, len(left)); fi++ {
				if fi != sp.File && last[sp.File] > 0 && left[fi] > 0 && last[fi] < last[sp.File] {
					t.Errorf("%s: f%dc%d dispatched again before f%d, which still has %d pending (%s)",
						tc.name, sp.File, sp.Index, fi, left[fi], render(jobs))
				}
			}
			for _, prev := range chunks[:i] {
				if prev.File == sp.File && prev.Index >= sp.Index {
					t.Errorf("%s: f%dc%d dispatched after f%dc%d (%s)", tc.name, sp.File, sp.Index, prev.File, prev.Index, render(jobs))
				}
			}
			last[sp.File] = i + 1
			left[sp.File]--
		}
	}
}

// TestEngineFirstWindowSpansDistinctFiles: with S streams and at least S
// files, the first S chunks in flight together belong to S different
// files — S writers on S inodes, not S writers queued on one.
func TestEngineFirstWindowSpansDistinctFiles(t *testing.T) {
	const chunk, streams = 1024, 4
	fx, _ := newEngineBatch(t, 8, 2*chunk)
	e, sk := &ChunkMover{ChunkBytes: chunk, Streams: streams}, newMemSink()
	var (
		mu       sync.Mutex
		first    []int
		together = make(chan struct{})
	)
	sk.before = func(sp chunkSpan) error {
		mu.Lock()
		wait := len(first) < streams
		if wait {
			first = append(first, sp.File)
			if len(first) == streams {
				close(together)
			}
		}
		mu.Unlock()
		if wait {
			select {
			case <-together:
			case <-time.After(5 * time.Second):
				return errors.New("the first window never filled")
			}
		}
		return nil
	}
	if _, err := e.run(fx.task, fx.src, fx.dst, sk); err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, f := range first {
		seen[f] = true
	}
	if len(seen) != streams {
		t.Errorf("first %d chunks in flight target files %v, want %d distinct files", streams, first, streams)
	}
}

// TestEngineMergesEachFileAsItsLastChunkLands: every file is merged
// exactly once and only after all of its writes; merges do not wait for
// the whole task — a file of the first stripe is being merged before the
// second stripe has finished landing.
func TestEngineMergesEachFileAsItsLastChunkLands(t *testing.T) {
	const chunk, streams = 1024, 2
	fx, payloads := newEngineBatch(t, 2*streams, 2*chunk)
	e, sk := &ChunkMover{ChunkBytes: chunk, Streams: streams}, newMemSink()
	rep, err := e.run(fx.task, fx.src, fx.dst, sk)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChunksMoved != 8 || rep.BytesMoved != int64(4*2*chunk) {
		t.Errorf("moved/bytes = %d/%d, want 8/%d", rep.ChunksMoved, rep.BytesMoved, 4*2*chunk)
	}
	firstMerge, lastWriteOfStripe2 := -1, -1
	for fi, f := range fx.task.Files {
		if rep.Checksums[f.RelPath] != hexSum(payloads[fi]) {
			t.Errorf("%s: whole-file checksum wrong", f.RelPath)
		}
		merged := -1
		for i, ev := range sk.events {
			switch ev {
			case "m " + f.RelPath:
				if merged >= 0 {
					t.Errorf("%s merged twice", f.RelPath)
				}
				merged = i
			case "w " + f.RelPath:
				if merged >= 0 {
					t.Errorf("%s: a write landed after its merge started", f.RelPath)
				}
				if fi >= streams {
					lastWriteOfStripe2 = max(lastWriteOfStripe2, i)
				}
			}
		}
		if merged < 0 {
			t.Errorf("%s never merged", f.RelPath)
		} else if fi < streams && (firstMerge < 0 || merged < firstMerge) {
			firstMerge = merged
		}
	}
	if firstMerge > lastWriteOfStripe2 {
		t.Errorf("no merge of the first stripe started before the second stripe finished landing: %v", sk.events)
	}
}

// TestEngineSkippedFileStillMergedAndAbortStopsMerges: a file whose
// chunks all survived a resume is merged all the same (as a job of its
// own), and once a write has failed no further merge starts — not even
// such a job already queued behind the failure.
func TestEngineSkippedFileStillMergedAndAbortStopsMerges(t *testing.T) {
	fx, payloads := newEngineBatch(t, 3, 1024) // one chunk each
	e, sk := &ChunkMover{Streams: 3}, newMemSink()
	failF1 := func(sp chunkSpan) error {
		if sp.File == 1 {
			return errors.New("disk on fire")
		}
		return nil
	}

	// f0 and f2 land, f1 fails — once the other two writes are under way,
	// so the abort cannot pre-empt them.
	var others sync.WaitGroup
	others.Add(2)
	sk.before = func(sp chunkSpan) error {
		if sp.File == 1 {
			others.Wait()
		} else {
			others.Done()
		}
		return failF1(sp)
	}
	if _, err := e.run(fx.task, fx.src, fx.dst, sk); err == nil {
		t.Fatal("attempt with a failing write succeeded")
	}
	if n := doneChunks(t, e); n != 2 {
		t.Fatalf("manifest records %d chunks done, want 2", n)
	}

	// One stream: merge f0, write f1 (fails again), merge f2 — which must
	// not start.
	sk.before, sk.events = failF1, nil
	e.Streams = 1
	rep, err := e.run(fx.task, fx.src, fx.dst, sk)
	if err == nil || rep.Checksums != nil {
		t.Fatalf("err = %v sums = %v, want the write error and no checksums", err, rep.Checksums)
	}
	if got := strings.Join(sk.events, ","); got != "m f0.bin" {
		t.Errorf("events after the second failure = %q, want only f0's merge", got)
	}

	sk.before, sk.events = nil, nil
	rep, err = e.run(fx.task, fx.src, fx.dst, sk)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChunksSkipped != 2 || rep.ChunksMoved != 1 || rep.BytesMoved != 3*1024 {
		t.Errorf("skipped/moved/bytes = %d/%d/%d, want 2/1/%d", rep.ChunksSkipped, rep.ChunksMoved, rep.BytesMoved, 3*1024)
	}
	for fi, f := range fx.task.Files {
		if sk.count("m "+f.RelPath) != 1 {
			t.Errorf("%s merged %d times on the resumed attempt, want once", f.RelPath, sk.count("m "+f.RelPath))
		}
		if rep.Checksums[f.RelPath] != hexSum(payloads[fi]) {
			t.Errorf("%s: whole-file checksum wrong", f.RelPath)
		}
	}
}

// TestEngineKillOnLastChunkStartsNoMerge: the chunk whose completion trips
// the kill latch is also its file's last — the file is fully landed, but
// the attempt is dead and must not merge it.
func TestEngineKillOnLastChunkStartsNoMerge(t *testing.T) {
	const chunk = 1024
	fx, _ := newEngineBatch(t, 2, 2*chunk)
	sk := newMemSink()
	e := &ChunkMover{ChunkBytes: chunk, Streams: 1, KillAfterChunks: 2}
	if _, err := e.run(fx.task, fx.src, fx.dst, sk); err == nil || !strings.Contains(err.Error(), "killed after 2 chunks") {
		t.Fatalf("err = %v, want the injected kill", err)
	}
	if got := strings.Join(sk.events, ","); got != "w f0.bin,w f0.bin" {
		t.Errorf("events = %q, want f0's two writes and no merge", got)
	}
}

// TestEngineBadMergeFailsWholeAttempt: with several files merging
// concurrently, one file's merge names a bad chunk. Exactly that chunk is
// demoted, the attempt fails, and no file's checksum is reported — the
// files that did merge are not a partial success.
func TestEngineBadMergeFailsWholeAttempt(t *testing.T) {
	const chunk = 1024
	fx, payloads := newEngineBatch(t, 4, 2*chunk)
	sk := newMemSink()
	sk.badMerge, sk.badMergeRel = 1, "f2.bin"
	// A worker that has taken a chunk but not yet looked at the abort flag
	// skips it once f2's merge has failed; hold f2's last chunk until the
	// first stripe's four are written, so what the manifest must show below
	// does not depend on how the two workers were scheduled.
	sk.before = func(sp chunkSpan) error {
		for sp.File == 2 && sp.Index == 1 && sk.count("w f0.bin")+sk.count("w f1.bin") < 4 {
			time.Sleep(time.Millisecond)
		}
		return nil
	}
	e := &ChunkMover{ChunkBytes: chunk, Streams: 2}

	rep, err := e.run(fx.task, fx.src, fx.dst, sk)
	sk.before = nil
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch on f2.bin") {
		t.Fatalf("err = %v, want f2's checksum mismatch", err)
	}
	if rep.Checksums != nil {
		t.Errorf("failed attempt reported checksums %v", rep.Checksums)
	}
	// Everything dispatched before f2's last chunk has landed and stays
	// done; of f2, only the named chunk is demoted.
	e.manifests.mu.Lock()
	for _, m := range e.manifests.mem {
		for fi, want := range [][]bool{{true, true}, {true, true}, {true, false}} {
			for ci, c := range m.Files[fi].Chunks {
				if c.Done != want[ci] {
					t.Errorf("f%dc%d done=%v after f2c1 was demoted, want %v", fi, ci, c.Done, want[ci])
				}
			}
		}
	}
	e.manifests.mu.Unlock()

	sk.writes = nil
	rep, err = e.run(fx.task, fx.src, fx.dst, sk)
	if err != nil {
		t.Fatal(err)
	}
	resent := 0
	for _, sp := range sk.writes {
		if sp.File == 2 && sp.Index == 1 {
			resent++
		}
	}
	if resent != 1 || rep.ChunksSkipped+rep.ChunksMoved != 8 {
		t.Errorf("retry re-sent f2c1 %d times and skipped+moved %d+%d, want once and 8 in all", resent, rep.ChunksSkipped, rep.ChunksMoved)
	}
	for fi, f := range fx.task.Files {
		if rep.Checksums[f.RelPath] != hexSum(payloads[fi]) {
			t.Errorf("%s: whole-file checksum wrong after the re-send", f.RelPath)
		}
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
		if _, err := (&ChunkMover{}).run(fx.task, fx.src, fx.dst, newMemSink()); err == nil {
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
