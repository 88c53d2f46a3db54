package transfer

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"picoprobe/internal/landing"
)

// sink is the destination side of one move attempt — the one thing a
// mover's landing decides. The engine owns the plan, the manifest,
// the worker pool and every resume decision; a sink only touches
// destination bytes and reports what it found (contract: DESIGN.md §8).
// A sink must refuse a rel that is not local to its root.
type sink interface {
	// Stat reports each destination file's current size, -1 when absent.
	Stat(rels []string) ([]int64, error)
	// Prepare creates rel at exactly size bytes.
	Prepare(rel string, size int64) error
	// Write lands src's bytes at sp in the same range of rel and returns
	// their hex SHA-256. merged reports that the write was also the file's
	// verified merge — sp is Whole and rel is now exactly the bytes sum
	// digests — so sum is the whole-file digest and no Merge follows.
	// f is the file's fold (nil when it has none): a sink that holds the
	// bytes the destination accepted calls f.add once with them, and a
	// sink that does not hold them leaves the file to Merge.
	Write(rel string, sp chunkSpan, src io.ReaderAt, f *fold) (sum string, merged bool, err error)
	// Hash digests what rel holds at [off, off+n) now; present is false
	// when the destination does not extend past the range.
	Hash(rel string, off, n int64) (sum string, present bool, err error)
	// Merge is the sequential verified pass over a landed file: the
	// whole-file digest, or the index of the first chunk that no longer
	// matches its recorded digest (badChunk, -1 when none). The engine
	// merges different rels concurrently, each after its last Write.
	Merge(rel string, chunks []landing.Chunk) (sum string, badChunk int, err error)
}

// adaptiveWorkerCap bounds the adaptive worker pool: the tuner can widen
// the window up to this many concurrent chunk copies.
const adaptiveWorkerCap = 32

func (m *ChunkMover) store() *manifestStore {
	m.initOnce.Do(func() { m.manifests = newManifestStore(m.ManifestDir, m.FS) })
	return m.manifests
}

// tunedStreams is the dispatcher's current admission window: the tuner's
// stream count (the fixed one without a tuner or an opinion) clamped to
// [1, pool].
func (m *ChunkMover) tunedStreams(pool int) int {
	s := m.Streams
	if m.Tuner != nil {
		if ts, _ := m.Tuner.Tune(); ts > 0 {
			s = ts
		}
	}
	return min(max(s, 1), pool)
}

// run is one move attempt: plan → fingerprint → manifest resume → bounded
// worker pool landing chunks in stripes and merging each file, verified,
// as its last chunk lands. The partial Report of a failed attempt still
// counts every chunk that landed.
func (m *ChunkMover) run(task *Task, src, dst *Endpoint, sk sink) (Report, error) {
	var rep Report
	ms := m.store()

	// Fix the plan from the real source files, so chunk spans and the task
	// fingerprint are computed from real sizes. The fingerprint includes
	// the source modification times, so a source rewritten between
	// attempts gets a fresh manifest instead of resuming stale chunks
	// into a mixed-content destination.
	srcs := make([]*os.File, len(task.Files))
	defer func() {
		for _, f := range srcs {
			if f != nil {
				f.Close()
			}
		}
	}()
	files := make([]FileSpec, len(task.Files))
	mtimes := make([]int64, len(task.Files))
	rels := make([]string, len(task.Files))
	for i, f := range task.Files {
		in, err := os.Open(filepath.Join(src.Root, f.RelPath))
		if err != nil {
			return rep, fmt.Errorf("transfer: %w", err)
		}
		srcs[i] = in
		st, err := in.Stat()
		if err != nil {
			return rep, fmt.Errorf("transfer: %w", err)
		}
		files[i] = FileSpec{RelPath: f.RelPath, Bytes: st.Size()}
		mtimes[i] = st.ModTime().UnixNano()
		rels[i] = f.RelPath
	}
	// With a tuner the fingerprint pins the adaptive MODE rather than the
	// measured size, so a retry resumes the recorded chunk plan even after
	// the tuner's answer has moved.
	chunkBytes, keyChunk := m.ChunkBytes, m.ChunkBytes
	adaptive := m.Tuner != nil
	if adaptive {
		if _, cb := m.Tuner.Tune(); cb > 0 {
			chunkBytes = cb
		}
		keyChunk = adaptiveChunkSentinel
	}
	key := taskKey(src.ID, dst.ID, files, keyChunk, mtimes)
	man, err := ms.load(key, files, chunkBytes, adaptive)
	if err != nil {
		return rep, err
	}
	spans := man.spans()
	rep.ChunksTotal = len(spans)

	// Size every destination BEFORE preparing it: resume must judge
	// manifest-done chunks against what actually survived, not against
	// the full-size file Prepare creates.
	preSizes, err := sk.Stat(rels)
	if err != nil {
		return rep, fmt.Errorf("transfer: stat destination: %w", err)
	}
	for i, f := range files {
		if preSizes[i] != f.Bytes {
			if err := sk.Prepare(f.RelPath, f.Bytes); err != nil {
				return rep, fmt.Errorf("transfer: prepare %s: %w", f.RelPath, err)
			}
		}
	}

	// Resume: a chunk the manifest marks done is skipped only if it
	// survived at the destination; any that did not are demoted and
	// re-moved.
	pending := make([][]chunkSpan, len(files))
	for _, sp := range spans {
		sum, ok := ms.done(man, sp)
		if ok && survived(sk, files[sp.File].RelPath, sp, sum, preSizes[sp.File]) {
			rep.ChunksSkipped++
			continue
		}
		if ok {
			ms.mark(man, sp, "", false)
		}
		pending[sp.File] = append(pending[sp.File], sp)
	}

	// The bounded worker pool. With a tuner the pool is sized to the
	// adaptive ceiling and the dispatcher throttles admission to the
	// tuned window instead, so the effective parallelism can move
	// mid-task without re-spawning workers.
	pool := max(m.Streams, 1)
	if adaptive {
		pool = adaptiveWorkerCap
	}
	todo := striped(pending, m.tunedStreams(pool))
	pool = min(pool, len(todo))
	// A multi-chunk file whose every chunk this attempt lands is digested
	// as its chunks are accepted (fold); one with a chunk that survived a
	// resume is not, because the merge re-checks the skipped bytes.
	folds := make([]*fold, len(files))
	for fi, mf := range man.Files {
		if n := len(mf.Chunks); n >= 2 && len(pending[fi]) == n {
			folds[fi] = newFold(n)
		}
	}
	var (
		work      = make(chan job)
		chunkDone = make(chan struct{}, len(todo)) // one send per dispatched job: workers never block on it
		wg        sync.WaitGroup
		errOnce   sync.Once
		firstErr  error
		aborted   atomic.Bool
		completed atomic.Int64
		copied    atomic.Int64
		remaining = make([]atomic.Int64, len(files)) // chunks of each file still to land
		mergedMu  sync.Mutex                         // guards sums and rep.BytesMoved
		sums      = map[string]string{}
	)
	for fi, spans := range pending {
		remaining[fi].Store(int64(len(spans)))
	}
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		aborted.Store(true)
		for _, f := range folds {
			f.stop()
		}
	}
	// mergeFile is the verified merge of one fully landed file, run on the
	// pool by whichever worker landed its last chunk: a damaged chunk
	// never ends up in a "completed" file, and no merge starts once the
	// attempt is aborted. A file the sink merged as its one chunk landed
	// (merged, with sum its digest) has nothing left to verify; one whose
	// every chunk was folded as it was accepted needs only its size.
	mergeFile := func(fi int, merged bool, sum string) {
		if aborted.Load() {
			return
		}
		if !merged {
			var err error
			if folded, ok := folds[fi].sum(); ok {
				sum, err = closeFolded(sk, files[fi], folded)
			} else {
				sum, err = merge(sk, ms, man, fi)
			}
			if err != nil {
				fail(err)
				return
			}
		}
		mergedMu.Lock()
		sums[files[fi].RelPath] = sum
		rep.BytesMoved += files[fi].Bytes
		mergedMu.Unlock()
	}
	land := func(sp chunkSpan) {
		sum, merged, err := sk.Write(files[sp.File].RelPath, sp, srcs[sp.File], folds[sp.File])
		if err != nil {
			fail(err)
			return
		}
		ms.mark(man, sp, sum, true)
		copied.Add(sp.N)
		n := completed.Add(1)
		if m.KillAfterChunks > 0 && n >= int64(m.KillAfterChunks) && m.killed.CompareAndSwap(false, true) {
			fail(fmt.Errorf("transfer: killed after %d chunks (injected fault)", n))
		}
		if remaining[sp.File].Add(-1) == 0 {
			mergeFile(sp.File, merged, sum)
		}
	}
	for w := 0; w < pool; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				switch {
				case aborted.Load():
				case j.mergeOnly:
					mergeFile(j.sp.File, false, "")
				default:
					land(j.sp)
				}
				chunkDone <- struct{}{}
			}
		}()
	}
	// Dispatch: keep at most the admission window of jobs in flight,
	// re-reading it between dispatches so the stream count tracks the
	// measured path mid-task (without a tuner the window is the pool).
	inFlight := 0
	for _, j := range todo {
		for inFlight >= m.tunedStreams(pool) {
			<-chunkDone
			inFlight--
		}
		work <- j
		inFlight++
	}
	close(work)
	wg.Wait()

	rep.ChunksMoved = int(completed.Load())
	rep.BytesCopied = copied.Load()
	if firstErr != nil {
		return rep, firstErr
	}
	rep.Checksums = sums
	ms.forget(key)
	return rep, nil
}

// job is one unit of pool work: land chunk sp, or (mergeOnly) merge file
// sp.File, every chunk of which survived a resume.
type job struct {
	sp        chunkSpan
	mergeOnly bool
}

// striped orders one attempt's work. Files are taken width at a time and
// each stripe's pending chunks go out round-robin across its files
// (f0c0 f1c0 f2c0 f3c0 f0c1 …), so width concurrent writes land in width
// different files: a buffered pwrite holds the file's inode lock for the
// whole copy, and chunks of one file only queue behind each other
// (DESIGN.md §8). A file with nothing pending still needs its merge; that
// goes at the head of its stripe. One file, or width 1, is file-major
// order. Either way a file's chunks go out in ascending order, so the
// chunk a fold waits for is always held by a worker or done.
func striped(pending [][]chunkSpan, width int) []job {
	var out []job
	for lo := 0; lo < len(pending); lo += width {
		stripe := pending[lo:min(lo+width, len(pending))]
		rounds := 0
		for i, spans := range stripe {
			if len(spans) == 0 {
				out = append(out, job{sp: chunkSpan{File: lo + i}, mergeOnly: true})
			}
			rounds = max(rounds, len(spans))
		}
		for r := 0; r < rounds; r++ {
			for _, spans := range stripe {
				if r < len(spans) {
					out = append(out, job{sp: spans[r]})
				}
			}
		}
	}
	return out
}

// survived decides whether a manifest-done chunk can be skipped. preSize
// is the destination file's size before this attempt touched it: a chunk
// can only have survived if the file already extended past it (the
// current size is useless — the attempt prepares the file to full
// length). The range is then re-hashed in place (a cheap read, 32 bytes
// on the wire, not a copy) and must match the recorded digest. A done
// chunk with no digest — a manifest an older binary wrote with
// verification off — cannot be verified now and is re-moved.
func survived(sk sink, rel string, sp chunkSpan, sum string, preSize int64) bool {
	if preSize < sp.Off+sp.N || sum == "" {
		return false
	}
	got, present, err := sk.Hash(rel, sp.Off, sp.N)
	return err == nil && present && got == sum
}

// merge runs the verified merge for one file. A mismatched chunk is
// demoted in the manifest (so the retry re-moves exactly it) and the
// merge fails.
func merge(sk sink, ms *manifestStore, man *manifest, fi int) (string, error) {
	mf := man.Files[fi]
	plan := make([]landing.Chunk, len(mf.Chunks))
	for i, c := range mf.Chunks {
		plan[i] = landing.Chunk{Off: c.Off, N: c.N, SHA256: c.SHA256}
	}
	sum, bad, err := sk.Merge(mf.RelPath, plan)
	if err != nil {
		return "", fmt.Errorf("transfer: merge %s: %w", mf.RelPath, err)
	}
	if bad >= 0 {
		ms.mark(man, chunkSpan{File: fi, Index: bad, Off: plan[bad].Off, N: plan[bad].N}, "", false)
		return "", fmt.Errorf("transfer: checksum mismatch on %s chunk @%d", mf.RelPath, plan[bad].Off)
	}
	return sum, nil
}

// fold is the running whole-file SHA-256 of a multi-chunk file every
// chunk of which this attempt lands: each chunk's accepted bytes are
// added in chunk order, so once all are in, the digest is the file's
// and the file needs no read-back (DESIGN.md §8).
type fold struct {
	mu      sync.Mutex
	turn    sync.Cond // signalled when next moves or the attempt aborts
	h       hash.Hash
	next, n int // next chunk to add, of n
	stopped bool
}

func newFold(n int) *fold {
	f := &fold{h: sha256.New(), n: n}
	f.turn.L = &f.mu
	return f
}

// add folds chunk index's bytes into the digest once every earlier chunk
// is in. It returns at once, adding nothing, when the attempt aborts. A
// nil fold does nothing.
func (f *fold) add(index int, b []byte) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.next != index && !f.stopped {
		f.turn.Wait()
	}
	if f.stopped {
		return
	}
	f.h.Write(b)
	f.next++
	f.turn.Broadcast()
}

// stop wakes every add waiting for its turn; none adds anything after.
func (f *fold) stop() {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.stopped = true
	f.mu.Unlock()
	f.turn.Broadcast()
}

// sum returns the whole-file digest; ok is false unless every chunk was
// added.
func (f *fold) sum() (sum string, ok bool) {
	if f == nil {
		return "", false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.next != f.n {
		return "", false
	}
	return hex.EncodeToString(f.h.Sum(nil)), true
}

// closeFolded closes a file whose digest its fold computed: every byte of
// it was written by this attempt and passed the destination's check, so
// what is left to confirm is that the destination holds exactly the
// file's bytes and no more.
func closeFolded(sk sink, f FileSpec, sum string) (string, error) {
	sizes, err := sk.Stat([]string{f.RelPath})
	if err != nil {
		return "", fmt.Errorf("transfer: stat %s: %w", f.RelPath, err)
	}
	if sizes[0] != f.Bytes {
		return "", fmt.Errorf("transfer: %s holds %d bytes once its chunks landed, want %d: %w", f.RelPath, sizes[0], f.Bytes, landing.ErrInvalid)
	}
	return sum, nil
}
