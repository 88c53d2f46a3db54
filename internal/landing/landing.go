// Package landing is the on-disk landing store of the chunk data plane
// (DESIGN.md §8): the rooted, path-confined file operations a chunked
// transfer needs at its destination. It is the one implementation behind
// both landings — the chunk mover's local sink calls it
// directly, the facility daemon's wire handlers call it after their
// protocol-level checks. The store keeps no state beyond the files under
// Root and holds no file open between calls, which is what lets a
// SIGKILLed daemon restart on the same root with no recovery step.
package landing

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// ErrInvalid marks a request the store refuses on its arguments alone — a
// path that is not local to the root, a negative offset or size, a merge
// plan that does not tile the file or leaves a chunk without a digest —
// as opposed to an I/O failure. The daemon maps it to a bad-request
// answer.
var ErrInvalid = errors.New("invalid landing request")

// bufPool supplies the scratch buffers chunks are copied and hashed
// through, so a busy ingest burst does not allocate per chunk.
var bufPool = sync.Pool{
	New: func() any { b := make([]byte, 256<<10); return &b },
}

// Store is a landing area rooted at one directory.
type Store struct {
	Root string
}

// Chunk is one entry of a merge plan: the byte range [Off, Off+N) and the
// hex SHA-256 recorded when the chunk was written. The JSON form is the
// wire protocol's (wire.MergeChunk is this type).
type Chunk struct {
	Off    int64  `json:"off"`
	N      int64  `json:"n"`
	SHA256 string `json:"sha256,omitempty"`
}

// Resolve confines rel under Root. Empty, absolute and escaping paths are
// ErrInvalid, not an os error: the store never touches a path outside its
// root.
func (s Store) Resolve(rel string) (string, error) {
	local := filepath.FromSlash(rel)
	if !filepath.IsLocal(local) {
		return "", fmt.Errorf("landing: path %q is not local to the root: %w", rel, ErrInvalid)
	}
	return filepath.Join(s.Root, local), nil
}

// Stat reports each file's current size, -1 for one that is absent (or
// not a regular file).
func (s Store) Stat(rels []string) ([]int64, error) {
	sizes := make([]int64, len(rels))
	for i, rel := range rels {
		path, err := s.Resolve(rel)
		if err != nil {
			return nil, err
		}
		sizes[i] = -1
		if st, err := os.Stat(path); err == nil && !st.IsDir() {
			sizes[i] = st.Size()
		}
	}
	return sizes, nil
}

// create opens rel for ranged writing, creating it (and its directories)
// when absent.
func (s Store) create(rel string) (*os.File, error) {
	path, err := s.Resolve(rel)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	return os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
}

// Prepare creates rel at exactly size bytes, so ranged writes can land in
// any order. Callers that resume must Stat BEFORE preparing: the
// full-size file says nothing about which ranges survived.
func (s Store) Prepare(rel string, size int64) error {
	if size < 0 {
		return fmt.Errorf("landing: prepare size %d: %w", size, ErrInvalid)
	}
	f, err := s.create(rel)
	if err != nil {
		return err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Write streams r into rel starting at off and returns the bytes landed.
// whole reports that rel is now exactly those bytes: the write began at
// offset 0 and the file ends where it ended. A caller that verified the
// bytes it wrote has then verified the whole file, and that write is the
// file's merge (DESIGN.md §8) — no byte of it needs reading back.
func (s Store) Write(rel string, off int64, r io.Reader) (n int64, whole bool, err error) {
	if off < 0 {
		return 0, false, fmt.Errorf("landing: write offset %d: %w", off, ErrInvalid)
	}
	f, err := s.create(rel)
	if err != nil {
		return 0, false, err
	}
	bufp := bufPool.Get().(*[]byte)
	n, err = io.CopyBuffer(io.NewOffsetWriter(f, off), r, *bufp)
	bufPool.Put(bufp)
	if err == nil && off == 0 {
		var st os.FileInfo
		if st, err = f.Stat(); err == nil {
			whole = st.Size() == n
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, whole && err == nil, err
}

// Hash returns the hex SHA-256 of rel's bytes [off, off+n). present is
// false (and no error) when the file is absent or does not extend past
// the range — there is nothing there to have survived.
func (s Store) Hash(rel string, off, n int64) (sum string, present bool, err error) {
	f, err := s.openRange(rel, off, n)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			err = nil
		}
		return "", false, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil || st.Size() < off+n {
		return "", false, err
	}
	bufp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bufp)
	h := sha256.New()
	if _, err := io.CopyBuffer(h, io.NewSectionReader(f, off, n), *bufp); err != nil {
		return "", false, err
	}
	return hex.EncodeToString(h.Sum(nil)), true, nil
}

// openRange opens rel read-only after checking the range's bounds.
func (s Store) openRange(rel string, off, n int64) (*os.File, error) {
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("landing: range @%d+%d: %w", off, n, ErrInvalid)
	}
	path, err := s.Resolve(rel)
	if err != nil {
		return nil, err
	}
	return os.Open(path)
}

// Merge is the verified merge: one sequential pass over the landed file
// computing the whole-file digest while checking each chunk of the plan
// against its recorded digest. The plan must tile the file exactly and
// give every chunk a digest (ErrInvalid otherwise): no unverified byte is
// merged. On the first mismatch it returns that chunk's index as badChunk
// (>= 0) and no digest; badChunk is -1 otherwise. A one-chunk plan is
// hashed once: its chunk digest is the whole-file digest.
func (s Store) Merge(rel string, chunks []Chunk) (sum string, badChunk int, err error) {
	f, err := s.openRange(rel, 0, 0)
	if err != nil {
		return "", -1, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return "", -1, err
	}
	var end int64
	for i, c := range chunks {
		if c.Off != end || c.N < 0 {
			return "", -1, fmt.Errorf("landing: merge plan for %s not contiguous at @%d: %w", rel, c.Off, ErrInvalid)
		}
		if c.SHA256 == "" {
			return "", -1, fmt.Errorf("landing: merge plan for %s has no digest for chunk %d: %w", rel, i, ErrInvalid)
		}
		end += c.N
	}
	if end != st.Size() {
		return "", -1, fmt.Errorf("landing: merge plan covers %d bytes, %s has %d: %w", end, rel, st.Size(), ErrInvalid)
	}
	bufp := bufPool.Get().(*[]byte)
	defer bufPool.Put(bufp)
	whole := sha256.New()
	for i, c := range chunks {
		chunk, w := whole, io.Writer(whole)
		if len(chunks) > 1 {
			chunk = sha256.New()
			w = io.MultiWriter(whole, chunk)
		}
		r := io.NewSectionReader(f, c.Off, c.N)
		if _, err := io.CopyBuffer(w, r, *bufp); err != nil {
			return "", -1, fmt.Errorf("landing: merge read %s @%d: %w", rel, c.Off, err)
		}
		if hex.EncodeToString(chunk.Sum(nil)) != c.SHA256 {
			return "", i, nil
		}
	}
	return hex.EncodeToString(whole.Sum(nil)), -1, nil
}
