package transfer

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"picoprobe/internal/fsutil"
)

// The chunk plan and manifest are the heart of the resumable ingest data
// plane (DESIGN.md §8): every task's files are split into fixed-size
// chunks, each chunk is moved and verified independently, and the
// per-task manifest records which chunks have already landed so that a
// retried or resubmitted task re-moves only what is missing — retry cost
// is O(remaining chunks), not O(task bytes).

// manifestVersion guards the on-disk format; a mismatched version is
// discarded (the transfer simply starts over).
const manifestVersion = 1

// chunkSpan is one fixed-size slice of one file of a task.
type chunkSpan struct {
	// File indexes Task.Files; Index is the chunk ordinal within that file.
	File, Index int
	// Off/N bound the byte range [Off, Off+N) within the file.
	Off, N int64
	// Whole marks the one span of a one-chunk plan: the span is the file,
	// and a sink may merge it as it lands.
	Whole bool
}

// planFile splits a file of the given size into chunkBytes-sized spans.
// chunkBytes <= 0 (or >= size) yields a single span covering the whole
// file — the degenerate plan that reproduces the pre-chunking whole-file
// behavior exactly. A zero-byte file still gets one (empty) span so the
// copy machinery creates the destination file.
func planFile(file int, size, chunkBytes int64) []chunkSpan {
	if chunkBytes <= 0 || chunkBytes >= size {
		return []chunkSpan{{File: file, Index: 0, Off: 0, N: size, Whole: true}}
	}
	n := (size + chunkBytes - 1) / chunkBytes
	spans := make([]chunkSpan, 0, n)
	for i := int64(0); i < n; i++ {
		off := i * chunkBytes
		length := chunkBytes
		if off+length > size {
			length = size - off
		}
		spans = append(spans, chunkSpan{File: file, Index: int(i), Off: off, N: length})
	}
	return spans
}

// PlanFile returns the chunk lengths of the engine's own plan for a file
// of the given size, in order — what a mover outside this package (the
// simulated one, internal/lab) needs to move the same plan the live
// engine moves.
func PlanFile(size, chunkBytes int64) []int64 {
	spans := planFile(0, size, chunkBytes)
	lens := make([]int64, len(spans))
	for i, sp := range spans {
		lens[i] = sp.N
	}
	return lens
}

// manifestChunk is the persisted state of one chunk.
type manifestChunk struct {
	Off int64 `json:"off"`
	N   int64 `json:"n"`
	// SHA256 is the hex digest of the chunk's source bytes, recorded when
	// the chunk landed. A done chunk without one (an older binary's
	// unverified copy) is re-moved on resume.
	SHA256 string `json:"sha256,omitempty"`
	// Done marks the chunk as landed at the destination under that digest.
	Done bool `json:"done"`
}

// manifestFile is the persisted state of one file of a task.
type manifestFile struct {
	RelPath string          `json:"rel_path"`
	Bytes   int64           `json:"bytes"`
	Chunks  []manifestChunk `json:"chunks"`
}

// manifest is the persisted per-task chunk state. It is keyed by the task
// fingerprint (endpoints + file list + chunk size), not the service task
// ID, so a resubmitted identical task — after a crash, a reboot, or a new
// service instance — resumes from the last verified chunk.
type manifest struct {
	Version    int            `json:"version"`
	Key        string         `json:"key"`
	ChunkBytes int64          `json:"chunk_bytes"`
	Files      []manifestFile `json:"files"`

	// Persistence bookkeeping (never serialized): gen counts mutations
	// under the store lock; pmu serializes this manifest's disk writes
	// without blocking other tasks' workers; lastPersisted drops stale
	// snapshots that lost the race to a newer one.
	gen           int64
	pmu           sync.Mutex
	lastPersisted int64
}

// taskKey fingerprints a task for manifest lookup: same endpoints, same
// files at the same sizes and (when provided, as the chunk mover does)
// the same source modification times, same chunk size. A source file
// rewritten between attempts therefore gets a fresh manifest — its old
// chunks must not be resumed into a mixed-content destination.
func taskKey(srcID, dstID string, files []FileSpec, chunkBytes int64, mtimes []int64) string {
	h := sha256.New()
	fmt.Fprintf(h, "v%d|%s|%s|%d", manifestVersion, srcID, dstID, chunkBytes)
	for i, f := range files {
		fmt.Fprintf(h, "|%s:%d", f.RelPath, f.Bytes)
		if i < len(mtimes) {
			fmt.Fprintf(h, ":%d", mtimes[i])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// newManifest builds a fresh (no chunk done) manifest for the task.
func newManifest(key string, files []FileSpec, chunkBytes int64) *manifest {
	m := &manifest{Version: manifestVersion, Key: key, ChunkBytes: chunkBytes}
	for i, f := range files {
		mf := manifestFile{RelPath: f.RelPath, Bytes: f.Bytes}
		for _, sp := range planFile(i, f.Bytes, chunkBytes) {
			mf.Chunks = append(mf.Chunks, manifestChunk{Off: sp.Off, N: sp.N})
		}
		m.Files = append(m.Files, mf)
	}
	return m
}

// matches reports whether the loaded manifest describes exactly this task
// (same files, sizes and chunking); anything else is discarded rather
// than resumed from. In adaptive mode the chunk size is not compared —
// the tuner's answer legitimately moves between attempts, and the
// recorded manifest's own chunk plan is what the resume replays.
func (m *manifest) matches(key string, files []FileSpec, chunkBytes int64, adaptive bool) bool {
	if m.Version != manifestVersion || m.Key != key || len(m.Files) != len(files) {
		return false
	}
	if !adaptive && m.ChunkBytes != chunkBytes {
		return false
	}
	for i, f := range files {
		if m.Files[i].RelPath != f.RelPath || m.Files[i].Bytes != f.Bytes {
			return false
		}
	}
	return true
}

// spans returns the full chunk plan recorded in the manifest.
func (m *manifest) spans() []chunkSpan {
	var out []chunkSpan
	for fi := range m.Files {
		chunks := m.Files[fi].Chunks
		for ci, c := range chunks {
			out = append(out, chunkSpan{File: fi, Index: ci, Off: c.Off, N: c.N, Whole: len(chunks) == 1})
		}
	}
	return out
}

// tiles reports whether every file's recorded chunks cover it exactly:
// contiguous non-empty spans from 0 to Bytes, or the one empty span of a
// zero-byte file. A plan that does not can never be moved or merged.
func (m *manifest) tiles() bool {
	for _, f := range m.Files {
		if f.Bytes == 0 && len(f.Chunks) == 1 && f.Chunks[0].Off == 0 && f.Chunks[0].N == 0 {
			continue
		}
		var end int64
		for _, c := range f.Chunks {
			if c.Off != end || c.N <= 0 || c.N > f.Bytes-end {
				return false
			}
			end += c.N
		}
		if len(f.Chunks) == 0 || end != f.Bytes {
			return false
		}
	}
	return true
}

// manifestStore keeps per-task manifests in memory (so in-service retries
// always resume) and, when dir is non-empty, mirrors them to disk (so a
// brand-new service instance resumes too). All methods are safe for
// concurrent use by the mover's worker pool.
type manifestStore struct {
	dir string
	fs  fsutil.FS

	mu  sync.Mutex
	mem map[string]*manifest
}

func newManifestStore(dir string, fsys fsutil.FS) *manifestStore {
	if fsys == nil {
		fsys = fsutil.OS
	}
	return &manifestStore{dir: dir, fs: fsys, mem: map[string]*manifest{}}
}

func (s *manifestStore) path(key string) string {
	return filepath.Join(s.dir, key+".manifest.json")
}

// load returns the manifest for the task, resuming a remembered or
// persisted one when it matches and starting fresh when there is none or
// it describes a different task. A manifest that EXISTS on disk but does
// not parse is different: that is torn or corrupt resume state, and
// silently starting from a fresh manifest would re-copy chunks over a
// destination whose contents we can no longer account for. The corrupt
// file is quarantined (renamed to .corrupt so the evidence survives) and
// the attempt fails loudly; the next attempt starts clean. So is one that
// parses and describes this task but whose chunks do not tile its files:
// resumed, every attempt would fail the same way.
func (s *manifestStore) load(key string, files []FileSpec, chunkBytes int64, adaptive bool) (*manifest, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.mem[key]; ok && m.matches(key, files, chunkBytes, adaptive) {
		return m, nil
	}
	if s.dir != "" {
		raw, err := s.fs.ReadFile(s.path(key))
		switch {
		case err == nil:
			var m manifest
			uerr := json.Unmarshal(raw, &m)
			if uerr == nil && !m.matches(key, files, chunkBytes, adaptive) {
				break // another task's plan: start fresh
			}
			if uerr == nil && !m.tiles() {
				uerr = errors.New("its chunks do not tile the files")
			}
			if uerr != nil {
				_ = s.fs.Rename(s.path(key), s.path(key)+".corrupt")
				return nil, fmt.Errorf("transfer: corrupt chunk manifest %s (quarantined as .corrupt): %w", s.path(key), uerr)
			}
			s.mem[key] = &m
			return &m, nil
		case !errors.Is(err, os.ErrNotExist):
			return nil, fmt.Errorf("transfer: read chunk manifest: %w", err)
		}
	}
	m := newManifest(key, files, chunkBytes)
	s.mem[key] = m
	return m, nil
}

// mark updates one chunk's state and persists the manifest. done=false
// demotes a chunk (its destination bytes failed verification) so the next
// attempt re-copies it. Under the store lock only the chunk state is
// mutated and a struct-level snapshot copied; the JSON encode and the
// disk write both happen outside it (the write under the manifest's own
// persist lock) — concurrent tasks' chunk workers never queue behind
// each other's marshaling or I/O.
func (s *manifestStore) mark(m *manifest, sp chunkSpan, sum string, done bool) {
	s.mu.Lock()
	c := &m.Files[sp.File].Chunks[sp.Index]
	c.SHA256 = sum
	c.Done = done
	if s.dir == "" {
		s.mu.Unlock()
		return
	}
	m.gen++
	gen := m.gen
	snap := manifest{Version: m.Version, Key: m.Key, ChunkBytes: m.ChunkBytes,
		Files: make([]manifestFile, len(m.Files))}
	for i, f := range m.Files {
		snap.Files[i] = f
		snap.Files[i].Chunks = append([]manifestChunk(nil), f.Chunks...)
	}
	s.mu.Unlock()
	raw, err := json.Marshal(&snap)
	if err != nil {
		return
	}
	s.persist(m, gen, raw)
}

// persist writes one manifest snapshot atomically and durably (tmp +
// fsync + rename + parent fsync via fsutil), skipping snapshots that a
// newer generation has already superseded; failures are tolerated — the
// worst case is a lost resume point, never corruption.
func (s *manifestStore) persist(m *manifest, gen int64, raw []byte) {
	m.pmu.Lock()
	defer m.pmu.Unlock()
	if m.lastPersisted >= gen {
		return
	}
	if err := s.fs.MkdirAll(s.dir, 0o755); err != nil {
		return
	}
	if err := fsutil.WriteFileAtomicFS(s.fs, s.path(m.Key), raw, 0o644); err != nil {
		return
	}
	m.lastPersisted = gen
}

// done reads one chunk's state under the store lock.
func (s *manifestStore) done(m *manifest, sp chunkSpan) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := m.Files[sp.File].Chunks[sp.Index]
	return c.SHA256, c.Done
}

// forget removes a completed task's manifest from memory and disk.
func (s *manifestStore) forget(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.mem, key)
	if s.dir != "" {
		_ = s.fs.Remove(s.path(key))
	}
}
