// Package durable is the write-ahead-log + snapshot layer that makes the
// serving-side state owners (the search catalog, flow run records, the
// facility registry) survive a crash or restart (DESIGN.md §9).
//
// A Store journals opaque records into an append-only, CRC-framed,
// segmented WAL and periodically collapses the log into an atomically
// written snapshot. Recovery is: load the newest valid snapshot, replay
// the WAL tail after it. Each record is framed as
//
//	[u32 payload length][u32 CRC32-C][u64 LSN][payload]
//
// (little endian; the CRC covers LSN + payload), so recovery detects a
// torn tail — the partial final record a crash mid-write leaves behind —
// and truncates it instead of failing boot. Torn or bit-rotted bytes
// anywhere but the tail of the final segment are real corruption and
// fail recovery loudly.
//
// There is one fsync policy: an acknowledged append is on disk. Append
// and AppendBatch fsync once before they return, so a batch pays one
// fsync for all its records. All writes go through an injectable
// fsutil.FS so the fault-injection harness can tear and crash the log at
// any chosen write or sync.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"picoprobe/internal/fsutil"
)

// Options configures a Store.
type Options struct {
	// FS is the filesystem (nil = the real one); tests inject
	// fsutil.FaultFS here.
	FS fsutil.FS
	// segmentBytes rotates the active WAL segment once it grows past this
	// size (0 = 4 MiB); the package's tests shrink it to force rolls.
	segmentBytes int64
}

// RecoveryStats describes what Open found and replayed.
type RecoveryStats struct {
	// SnapshotLSN is the LSN through which the loaded snapshot covers the
	// history (0 = no snapshot).
	SnapshotLSN uint64
	// SnapshotBytes is the loaded snapshot's payload size.
	SnapshotBytes int64
	// Records and Bytes count the WAL records replayed after the snapshot.
	Records int
	Bytes   int64
	// LastLSN is the highest LSN seen (snapshot or replay); the next
	// append gets LastLSN+1.
	LastLSN uint64
	// TornTail reports that the final segment ended in a partial or
	// corrupt record that was truncated away.
	TornTail bool
	// Segments is how many WAL segments recovery scanned.
	Segments int
}

const (
	segPrefix     = "wal-"
	segSuffix     = ".seg"
	snapPrefix    = "snap-"
	snapSuffix    = ".snap"
	frameHead     = 16 // u32 len + u32 crc + u64 lsn
	defaultSegMax = 4 << 20
	// maxRecordBytes bounds a single frame; a longer length field is
	// treated as corruption rather than an allocation request.
	maxRecordBytes = 1 << 30
)

// snapMagic heads every snapshot file; the u64 after it is the covered
// LSN, then a u32 CRC32-C and u64 length of the payload that follows.
var snapMagic = []byte("PPSNAP1\n")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports WAL damage that torn-tail truncation cannot explain
// (a bad record that is not the final one): recovery fails loudly rather
// than silently dropping acknowledged history.
var ErrCorrupt = errors.New("durable: corrupt WAL")

// Store is an append-only record log with snapshot+compaction. One Store
// owns one directory. Appends are safe for concurrent use; Snapshot may
// run concurrently with appends (it captures the LSN under the same
// mutex appends hold).
type Store struct {
	dir  string
	fs   fsutil.FS
	opts Options

	mu       sync.Mutex
	seg      fsutil.File // active segment (nil until first append)
	segPath  string
	segFirst uint64 // first LSN in the active segment
	segSize  int64
	nextLSN  uint64
	snapLSN  uint64
	dirty    bool // unsynced bytes in the active segment
	closed   bool
}

// Open opens (creating if needed) the store in dir and runs recovery:
// loadSnapshot (may be nil) receives the newest valid snapshot's payload,
// then replay (may be nil) receives every WAL record after it, in LSN
// order. The store is ready for appends when Open returns.
func Open(dir string, opts Options, loadSnapshot func(r io.Reader) error, replay func(payload []byte) error) (*Store, RecoveryStats, error) {
	if opts.FS == nil {
		opts.FS = fsutil.OS
	}
	if opts.segmentBytes <= 0 {
		opts.segmentBytes = defaultSegMax
	}
	s := &Store{dir: dir, fs: opts.FS, opts: opts, nextLSN: 1}
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, RecoveryStats{}, fmt.Errorf("durable: %w", err)
	}
	stats, err := s.recover(loadSnapshot, replay)
	if err != nil {
		return nil, stats, err
	}
	return s, stats, nil
}

// segName returns the segment file name for a first-LSN.
func segName(first uint64) string { return fmt.Sprintf("%s%016x%s", segPrefix, first, segSuffix) }

// snapName returns the snapshot file name for a covered LSN.
func snapName(lsn uint64) string { return fmt.Sprintf("%s%016x%s", snapPrefix, lsn, snapSuffix) }

// parseSeq extracts the hex sequence from a segment or snapshot name.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := name[len(prefix) : len(name)-len(suffix)]
	n, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// recover loads the newest valid snapshot, replays the WAL tail, and
// leaves the store positioned to append.
func (s *Store) recover(loadSnapshot func(io.Reader) error, replay func([]byte) error) (RecoveryStats, error) {
	var stats RecoveryStats
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return stats, fmt.Errorf("durable: %w", err)
	}
	var snaps, segs []uint64
	for _, e := range entries {
		if n, ok := parseSeq(e.Name(), snapPrefix, snapSuffix); ok {
			snaps = append(snaps, n)
		}
		if n, ok := parseSeq(e.Name(), segPrefix, segSuffix); ok {
			segs = append(segs, n)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] }) // newest first
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })    // oldest first

	// Newest readable snapshot wins; older (or torn) ones are ignored —
	// the WAL tail since an older snapshot is still on disk, so falling
	// back loses nothing.
	for _, lsn := range snaps {
		payload, ok := s.readSnapshot(snapName(lsn))
		if !ok {
			continue
		}
		if loadSnapshot != nil {
			if err := loadSnapshot(strings.NewReader(string(payload))); err != nil {
				return stats, fmt.Errorf("durable: load snapshot %s: %w", snapName(lsn), err)
			}
		}
		stats.SnapshotLSN = lsn
		stats.SnapshotBytes = int64(len(payload))
		break
	}
	s.snapLSN = stats.SnapshotLSN
	last := stats.SnapshotLSN

	for i, first := range segs {
		lastSeg := i == len(segs)-1
		// A segment whose successor starts at or below snapLSN+1 holds
		// only covered records; skip the scan (but keep it on disk until
		// the next compaction).
		if !lastSeg && segs[i+1] <= stats.SnapshotLSN+1 {
			continue
		}
		name := segName(first)
		raw, err := s.fs.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			return stats, fmt.Errorf("durable: read segment %s: %w", name, err)
		}
		stats.Segments++
		goodEnd, err := s.scanSegment(name, raw, lastSeg, stats.SnapshotLSN, &last, &stats, replay)
		if err != nil {
			return stats, err
		}
		if lastSeg {
			if goodEnd < int64(len(raw)) {
				stats.TornTail = true
				if err := s.fs.Truncate(filepath.Join(s.dir, name), goodEnd); err != nil {
					return stats, fmt.Errorf("durable: truncate torn tail of %s: %w", name, err)
				}
			}
			// Re-open the final segment for appending at its (possibly
			// truncated) end.
			f, err := s.fs.OpenFile(filepath.Join(s.dir, name), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return stats, fmt.Errorf("durable: reopen %s: %w", name, err)
			}
			s.seg = f
			s.segPath = filepath.Join(s.dir, name)
			s.segFirst = first
			s.segSize = goodEnd
		}
	}
	stats.LastLSN = last
	s.nextLSN = last + 1
	return stats, nil
}

// scanSegment walks one segment's frames, replaying records above
// snapLSN. It returns the offset just past the last valid record. A bad
// frame in the final segment marks the torn tail; anywhere else it is
// corruption.
func (s *Store) scanSegment(name string, raw []byte, lastSeg bool, snapLSN uint64, last *uint64, stats *RecoveryStats, replay func([]byte) error) (int64, error) {
	off := 0
	for {
		rest := raw[off:]
		if len(rest) == 0 {
			return int64(off), nil
		}
		bad := ""
		var n int
		var lsn uint64
		var payload []byte
		switch {
		case len(rest) < frameHead:
			bad = "partial frame header"
		default:
			n = int(binary.LittleEndian.Uint32(rest[0:4]))
			lsn = binary.LittleEndian.Uint64(rest[8:16])
			switch {
			case n > maxRecordBytes:
				bad = "implausible record length"
			case len(rest) < frameHead+n:
				bad = "partial record payload"
			default:
				payload = rest[frameHead : frameHead+n]
				crc := binary.LittleEndian.Uint32(rest[4:8])
				if crc32.Checksum(rest[8:frameHead+n], crcTable) != crc {
					bad = "CRC mismatch"
				}
			}
		}
		if bad != "" {
			if lastSeg {
				// Torn tail: the crash interrupted the final write. The
				// caller truncates here.
				return int64(off), nil
			}
			return 0, fmt.Errorf("%w: %s in non-final segment %s at offset %d", ErrCorrupt, bad, name, off)
		}
		if lsn != *last+1 && lsn > snapLSN {
			return 0, fmt.Errorf("%w: segment %s skips from LSN %d to %d", ErrCorrupt, name, *last, lsn)
		}
		if lsn > snapLSN {
			if replay != nil {
				if err := replay(payload); err != nil {
					return 0, fmt.Errorf("durable: replay LSN %d: %w", lsn, err)
				}
			}
			stats.Records++
			stats.Bytes += int64(len(payload))
			*last = lsn
		}
		off += frameHead + n
	}
}

// readSnapshot validates and returns a snapshot file's payload.
func (s *Store) readSnapshot(name string) ([]byte, bool) {
	raw, err := s.fs.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return nil, false
	}
	head := len(snapMagic) + 8 + 4 + 8
	if len(raw) < head || string(raw[:len(snapMagic)]) != string(snapMagic) {
		return nil, false
	}
	crc := binary.LittleEndian.Uint32(raw[len(snapMagic)+8:])
	n := binary.LittleEndian.Uint64(raw[len(snapMagic)+12:])
	if uint64(len(raw)-head) != n {
		return nil, false
	}
	payload := raw[head:]
	if crc32.Checksum(payload, crcTable) != crc {
		return nil, false
	}
	return payload, true
}

// Append journals one record and returns its LSN. The record is on stable
// storage when Append returns.
func (s *Store) Append(payload []byte) (uint64, error) {
	return s.append([][]byte{payload})
}

// AppendBatch journals several records with one rotation check and one
// fsync. Records receive consecutive LSNs; the batch is fully acknowledged
// or not at all.
func (s *Store) AppendBatch(payloads [][]byte) (uint64, error) {
	if len(payloads) == 0 {
		return 0, errors.New("durable: empty batch")
	}
	return s.append(payloads)
}

func (s *Store) append(payloads [][]byte) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, errors.New("durable: store closed")
	}
	if err := s.rotateLocked(); err != nil {
		return 0, err
	}
	var last uint64
	var frame [frameHead]byte
	for _, p := range payloads {
		lsn := s.nextLSN
		binary.LittleEndian.PutUint32(frame[0:4], uint32(len(p)))
		binary.LittleEndian.PutUint64(frame[8:16], lsn)
		crc := crc32.Checksum(frame[8:16], crcTable)
		crc = crc32.Update(crc, crcTable, p)
		binary.LittleEndian.PutUint32(frame[4:8], crc)
		if _, err := s.seg.Write(frame[:]); err != nil {
			return 0, fmt.Errorf("durable: append: %w", err)
		}
		if _, err := s.seg.Write(p); err != nil {
			return 0, fmt.Errorf("durable: append: %w", err)
		}
		s.segSize += int64(frameHead + len(p))
		s.nextLSN++
		s.dirty = true
		last = lsn
	}
	if err := s.syncLocked(); err != nil {
		return 0, err
	}
	return last, nil
}

// rotateLocked ensures an active segment exists, starting a new one when
// the current one has outgrown segmentBytes.
func (s *Store) rotateLocked() error {
	if s.seg != nil && s.segSize < s.opts.segmentBytes {
		return nil
	}
	if s.seg != nil {
		if err := s.syncLocked(); err != nil {
			return err
		}
		if err := s.seg.Close(); err != nil {
			return fmt.Errorf("durable: close segment: %w", err)
		}
		s.seg = nil
	}
	path := filepath.Join(s.dir, segName(s.nextLSN))
	f, err := s.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("durable: create segment: %w", err)
	}
	// Make the new segment's directory entry durable before any record
	// lands in it.
	if err := s.fs.SyncDir(s.dir); err != nil {
		f.Close()
		return fmt.Errorf("durable: sync dir: %w", err)
	}
	s.seg = f
	s.segPath = path
	s.segFirst = s.nextLSN
	s.segSize = 0
	return nil
}

func (s *Store) syncLocked() error {
	if !s.dirty || s.seg == nil {
		return nil
	}
	if err := s.seg.Sync(); err != nil {
		return fmt.Errorf("durable: fsync: %w", err)
	}
	s.dirty = false
	return nil
}

// LastLSN returns the LSN of the most recently appended record (0 when
// the log is empty).
func (s *Store) LastLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextLSN - 1
}

// Snapshot collapses the log: write streams the owner's full state (it
// must reflect every record appended so far — callers serialize their own
// mutations around this call), the snapshot lands atomically, and WAL
// segments whose records it covers are reclaimed. The WAL is rotated so
// the next append starts a fresh segment and replay-after-snapshot stays
// short.
func (s *Store) Snapshot(write func(w io.Writer) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("durable: store closed")
	}
	lsn := s.nextLSN - 1
	if err := s.syncLocked(); err != nil {
		return err
	}

	var buf []byte
	w := &appendWriter{}
	if err := write(w); err != nil {
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	payload := w.buf
	head := make([]byte, len(snapMagic)+8+4+8)
	copy(head, snapMagic)
	binary.LittleEndian.PutUint64(head[len(snapMagic):], lsn)
	binary.LittleEndian.PutUint32(head[len(snapMagic)+8:], crc32.Checksum(payload, crcTable))
	binary.LittleEndian.PutUint64(head[len(snapMagic)+12:], uint64(len(payload)))
	buf = append(head, payload...)
	path := filepath.Join(s.dir, snapName(lsn))
	if err := fsutil.WriteFileAtomicFS(s.fs, path, buf, 0o644); err != nil {
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	s.snapLSN = lsn

	// Close the active segment and start fresh at the next append;
	// everything before the new segment is covered by the snapshot.
	if s.seg != nil {
		if err := s.seg.Close(); err != nil {
			return fmt.Errorf("durable: close segment: %w", err)
		}
		s.seg = nil
		s.segSize = 0
	}
	s.compactLocked(lsn)
	return nil
}

// compactLocked removes snapshots older than the one at lsn and every
// fully covered WAL segment. Reclamation failures are ignored — they cost
// disk, never correctness.
func (s *Store) compactLocked(lsn uint64) {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	var segs []uint64
	for _, e := range entries {
		if n, ok := parseSeq(e.Name(), snapPrefix, snapSuffix); ok && n < lsn {
			_ = s.fs.Remove(filepath.Join(s.dir, e.Name()))
		}
		if n, ok := parseSeq(e.Name(), segPrefix, segSuffix); ok {
			segs = append(segs, n)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	for i, first := range segs {
		// A segment is fully covered when its successor starts at or
		// below lsn+1 (its last record is then <= lsn). The final segment
		// ends at nextLSN-1 = lsn, so after the snapshot's rotation every
		// listed segment is reclaimable.
		covered := first <= lsn && (i+1 < len(segs) && segs[i+1] <= lsn+1 || i == len(segs)-1 && s.seg == nil && s.nextLSN == lsn+1)
		if covered {
			_ = s.fs.Remove(filepath.Join(s.dir, segName(first)))
		}
	}
}

// Close flushes and closes the store. Appends after Close fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.syncLocked()
	if s.seg != nil {
		if cerr := s.seg.Close(); err == nil {
			err = cerr
		}
		s.seg = nil
	}
	return err
}

// appendWriter collects snapshot bytes in memory (snapshots are written
// whole through WriteFileAtomic).
type appendWriter struct{ buf []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}
