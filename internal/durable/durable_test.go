package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"picoprobe/internal/fsutil"
)

// collect reopens dir and returns the replayed records plus stats.
func collect(t *testing.T, dir string, opts Options) (*Store, [][]byte, []byte, RecoveryStats) {
	t.Helper()
	var recs [][]byte
	var snap []byte
	st, stats, err := Open(dir, opts,
		func(r io.Reader) error {
			b, err := io.ReadAll(r)
			snap = b
			return err
		},
		func(p []byte) error {
			recs = append(recs, append([]byte(nil), p...))
			return nil
		})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return st, recs, snap, stats
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, _, _, stats := collect(t, dir, Options{})
	if stats.LastLSN != 0 || stats.Records != 0 {
		t.Fatalf("fresh dir stats = %+v", stats)
	}
	var want [][]byte
	for i := 0; i < 10; i++ {
		p := []byte(fmt.Sprintf("record-%d", i))
		want = append(want, p)
		lsn, err := st.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn = %d, want %d", lsn, i+1)
		}
	}
	if lsn, err := st.AppendBatch([][]byte{[]byte("b1"), []byte("b2")}); err != nil || lsn != 12 {
		t.Fatalf("batch lsn = %d err = %v, want 12", lsn, err)
	}
	want = append(want, []byte("b1"), []byte("b2"))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, recs, _, stats := collect(t, dir, Options{})
	defer st2.Close()
	if stats.LastLSN != 12 || stats.Records != 12 || stats.TornTail {
		t.Fatalf("stats = %+v, want 12 records, no torn tail", stats)
	}
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if !bytes.Equal(recs[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, recs[i], want[i])
		}
	}
	// Appends continue from the recovered LSN.
	if lsn, err := st2.Append([]byte("after")); err != nil || lsn != 13 {
		t.Fatalf("post-recovery lsn = %d err = %v, want 13", lsn, err)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st, _, _, _ := collect(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if _, err := st.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// Tear the tail: append garbage that looks like a frame header with a
	// length pointing past EOF (a record the crash cut short).
	path := filepath.Join(dir, segName(1))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var head [frameHead]byte
	binary.LittleEndian.PutUint32(head[0:4], 1000)
	binary.LittleEndian.PutUint64(head[8:16], 6)
	f.Write(head[:])
	f.Write([]byte("only-part-of-the-payload"))
	f.Close()
	before, _ := os.Stat(path)

	st2, recs, _, stats := collect(t, dir, Options{})
	defer st2.Close()
	if !stats.TornTail {
		t.Fatal("expected TornTail")
	}
	if stats.Records != 5 || stats.LastLSN != 5 {
		t.Fatalf("stats = %+v, want 5 intact records", stats)
	}
	if len(recs) != 5 || string(recs[4]) != "rec-4" {
		t.Fatalf("replay = %d records, last %q", len(recs), recs[len(recs)-1])
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("torn tail not truncated: %d -> %d", before.Size(), after.Size())
	}
	// The truncated log accepts new appends at the right LSN.
	if lsn, err := st2.Append([]byte("resume")); err != nil || lsn != 6 {
		t.Fatalf("resume lsn = %d err = %v", lsn, err)
	}
}

func TestCRCMismatchAtTailTruncates(t *testing.T) {
	dir := t.TempDir()
	st, _, _, _ := collect(t, dir, Options{})
	for i := 0; i < 3; i++ {
		st.Append([]byte(fmt.Sprintf("rec-%d", i)))
	}
	st.Close()

	// Flip one payload bit of the final record.
	path := filepath.Join(dir, segName(1))
	raw, _ := os.ReadFile(path)
	raw[len(raw)-1] ^= 0x01
	os.WriteFile(path, raw, 0o644)

	st2, recs, _, stats := collect(t, dir, Options{})
	defer st2.Close()
	if !stats.TornTail || stats.Records != 2 {
		t.Fatalf("stats = %+v, want torn tail with 2 survivors", stats)
	}
	if len(recs) != 2 {
		t.Fatalf("replayed %d, want 2", len(recs))
	}
}

func TestCorruptionMidSegmentFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	st, _, _, _ := collect(t, dir, Options{})
	for i := 0; i < 5; i++ {
		st.Append(bytes.Repeat([]byte{byte('a' + i)}, 32))
	}
	st.Close()

	// Corrupt the SECOND record — not the tail — so truncation would drop
	// acknowledged history. That must fail, not silently recover.
	path := filepath.Join(dir, segName(1))
	raw, _ := os.ReadFile(path)
	raw[frameHead+32+frameHead+4] ^= 0xFF
	os.WriteFile(path, raw, 0o644)
	// Add a second segment after it so the damaged one is not final.
	os.WriteFile(filepath.Join(dir, segName(6)), nil, 0o644)

	_, _, err := Open(dir, Options{}, nil, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	st, _, _, _ := collect(t, dir, Options{segmentBytes: 128})
	for i := 0; i < 20; i++ {
		if _, err := st.Append(bytes.Repeat([]byte{'x'}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	ents, _ := os.ReadDir(dir)
	segs := 0
	for _, e := range ents {
		if _, ok := parseSeq(e.Name(), segPrefix, segSuffix); ok {
			segs++
		}
	}
	if segs < 3 {
		t.Fatalf("got %d segments, want rotation to produce several", segs)
	}
	st2, recs, _, stats := collect(t, dir, Options{segmentBytes: 128})
	defer st2.Close()
	if stats.LastLSN != 20 || len(recs) != 20 {
		t.Fatalf("multi-segment replay: stats=%+v recs=%d", stats, len(recs))
	}
}

func TestSnapshotCompactionAndRecovery(t *testing.T) {
	dir := t.TempDir()
	st, _, _, _ := collect(t, dir, Options{segmentBytes: 256})
	state := 0
	for i := 1; i <= 30; i++ {
		st.Append([]byte(fmt.Sprintf("add %d", i)))
		state += i
	}
	err := st.Snapshot(func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "sum=%d", state)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Post-snapshot records form the replay tail.
	st.Append([]byte("add 100"))
	st.Append([]byte("add 200"))
	st.Close()

	// Old segments are reclaimed: everything before the snapshot is gone.
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if n, ok := parseSeq(e.Name(), segPrefix, segSuffix); ok && n <= 30 {
			t.Fatalf("segment %s should have been compacted away", e.Name())
		}
	}

	st2, recs, snap, stats := collect(t, dir, Options{segmentBytes: 256})
	defer st2.Close()
	if string(snap) != "sum=465" {
		t.Fatalf("snapshot payload = %q", snap)
	}
	if stats.SnapshotLSN != 30 || stats.LastLSN != 32 || stats.Records != 2 {
		t.Fatalf("stats = %+v, want snapshot@30 + 2-record tail", stats)
	}
	if len(recs) != 2 || string(recs[0]) != "add 100" || string(recs[1]) != "add 200" {
		t.Fatalf("tail = %q", recs)
	}
}

func TestSecondSnapshotRemovesFirst(t *testing.T) {
	dir := t.TempDir()
	st, _, _, _ := collect(t, dir, Options{})
	st.Append([]byte("a"))
	st.Snapshot(func(w io.Writer) error { _, err := w.Write([]byte("s1")); return err })
	st.Append([]byte("b"))
	st.Snapshot(func(w io.Writer) error { _, err := w.Write([]byte("s2")); return err })
	st.Close()

	ents, _ := os.ReadDir(dir)
	snaps := 0
	for _, e := range ents {
		if _, ok := parseSeq(e.Name(), snapPrefix, snapSuffix); ok {
			snaps++
		}
	}
	if snaps != 1 {
		t.Fatalf("%d snapshots on disk, want 1", snaps)
	}
	st2, recs, snap, stats := collect(t, dir, Options{})
	defer st2.Close()
	if string(snap) != "s2" || stats.SnapshotLSN != 2 || len(recs) != 0 {
		t.Fatalf("snap=%q stats=%+v recs=%d", snap, stats, len(recs))
	}
}

// A torn snapshot (crash mid-snapshot-write) must fall back to the
// previous snapshot + longer tail, never fail boot.
func TestTornSnapshotIgnored(t *testing.T) {
	dir := t.TempDir()
	st, _, _, _ := collect(t, dir, Options{})
	st.Append([]byte("a"))
	st.Snapshot(func(w io.Writer) error { _, err := w.Write([]byte("good-snap")); return err })
	st.Append([]byte("b"))
	st.Close()

	// Hand-plant a newer, torn snapshot.
	raw := append(append([]byte(nil), snapMagic...), make([]byte, 20)...)
	binary.LittleEndian.PutUint64(raw[len(snapMagic):], 2)
	os.WriteFile(filepath.Join(dir, snapName(2)), raw[:len(raw)-3], 0o644)

	st2, recs, snap, stats := collect(t, dir, Options{})
	defer st2.Close()
	if string(snap) != "good-snap" {
		t.Fatalf("snap = %q, want fallback to good-snap", snap)
	}
	if stats.SnapshotLSN != 1 || len(recs) != 1 || string(recs[0]) != "b" {
		t.Fatalf("stats=%+v recs=%q", stats, recs)
	}
}

// TestSyncPolicies: the one policy. An append call — single or batch —
// pays exactly one fsync, taken before it returns.
func TestSyncPolicies(t *testing.T) {
	t.Run("per-append", func(t *testing.T) {
		fs := &fsutil.FaultFS{}
		st, _, err := Open(t.TempDir(), Options{FS: fs}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		st.Append([]byte("first")) // creates the segment: one more sync, the directory's
		base := fs.Syncs()
		for i := 0; i < 3; i++ {
			st.Append([]byte("r"))
		}
		st.AppendBatch([][]byte{[]byte("x"), []byte("y"), []byte("z")})
		if got := fs.Syncs() - base; got != 4 {
			t.Fatalf("%d syncs for 3 appends + 1 batch of 3, want 4", got)
		}
	})
}

// lossyFS holds written bytes in memory until Sync, as a page cache does:
// closing a file without an fsync — the crash — loses them.
type lossyFS struct{ fsutil.FS }

func (l lossyFS) OpenFile(name string, flag int, perm os.FileMode) (fsutil.File, error) {
	f, err := l.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &lossyFile{File: f}, nil
}

type lossyFile struct {
	fsutil.File
	pending []byte
}

func (f *lossyFile) Write(p []byte) (int, error) {
	f.pending = append(f.pending, p...)
	return len(p), nil
}

func (f *lossyFile) Sync() error {
	if _, err := f.File.Write(f.pending); err != nil {
		return err
	}
	f.pending = nil
	return f.File.Sync()
}

// TestAckedAppendSurvivesCrash: an Append or AppendBatch that returned is
// on disk — a crash at the very next write, on a filesystem that forgets
// everything not fsynced, loses none of it.
func TestAckedAppendSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	faults := &fsutil.FaultFS{}
	st, _, err := Open(dir, Options{FS: lossyFS{faults}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append([]byte("single")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendBatch([][]byte{[]byte("b1"), []byte("b2")}); err != nil {
		t.Fatal(err)
	}
	faults.CrashAtWrite = faults.Writes() + 1
	if _, err := st.Append([]byte("unacknowledged")); err == nil {
		t.Fatal("append across the crash was acknowledged")
	}
	st.Close()

	st2, recs, _, _ := collect(t, dir, Options{})
	defer st2.Close()
	if got := string(bytes.Join(recs, []byte(","))); got != "single,b1,b2" {
		t.Fatalf("recovered %q, want every acknowledged record: single,b1,b2", got)
	}
}

// Crash injection at every successive write index: whatever the crash
// tears, recovery must come back with a prefix of the acknowledged
// records and accept new appends.
func TestCrashAtEveryWriteRecoversPrefix(t *testing.T) {
	for n := 1; n <= 14; n++ {
		fs := &fsutil.FaultFS{CrashAtWrite: n}
		dir := t.TempDir()
		st, _, err := Open(dir, Options{FS: fs}, nil, nil)
		if err != nil {
			t.Fatalf("n=%d: open: %v", n, err)
		}
		acked := 0
		for i := 0; i < 6; i++ {
			if _, err := st.Append([]byte(fmt.Sprintf("rec-%03d", i))); err != nil {
				break
			}
			acked++
		}
		st.Close()

		// Recovery on the real FS (the machine rebooted).
		var recs [][]byte
		st2, stats, err := Open(dir, Options{}, nil, func(p []byte) error {
			recs = append(recs, append([]byte(nil), p...))
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: recover: %v", n, err)
		}
		if len(recs) < acked {
			t.Fatalf("n=%d: recovered %d < acked %d", n, len(recs), acked)
		}
		for i, r := range recs {
			if want := fmt.Sprintf("rec-%03d", i); string(r) != want {
				t.Fatalf("n=%d: record %d = %q, want %q", n, i, r, want)
			}
		}
		if lsn, err := st2.Append([]byte("post")); err != nil || lsn != stats.LastLSN+1 {
			t.Fatalf("n=%d: post-recovery append lsn=%d err=%v", n, lsn, err)
		}
		st2.Close()
	}
}

// Crash injection at every sync: per-append policy means an errored
// append is unacknowledged, so recovery needs only the error-free prefix.
func TestCrashAtEverySyncRecoversPrefix(t *testing.T) {
	for n := 1; n <= 8; n++ {
		fs := &fsutil.FaultFS{CrashAtSync: n}
		dir := t.TempDir()
		st, _, err := Open(dir, Options{FS: fs}, nil, nil)
		if err != nil {
			if fs.Crashed() {
				continue // crash hit the segment-creation dir sync path later
			}
			t.Fatalf("n=%d: open: %v", n, err)
		}
		acked := 0
		for i := 0; i < 6; i++ {
			if _, err := st.Append([]byte(fmt.Sprintf("rec-%03d", i))); err != nil {
				break
			}
			acked++
		}
		st.Close()

		var recs [][]byte
		st2, _, err := Open(dir, Options{}, nil, func(p []byte) error {
			recs = append(recs, p)
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: recover: %v", n, err)
		}
		if len(recs) < acked {
			t.Fatalf("n=%d: recovered %d < acked %d", n, len(recs), acked)
		}
		st2.Close()
	}
}

func TestSnapshotCrashKeepsOldState(t *testing.T) {
	dir := t.TempDir()
	st, _, _, _ := collect(t, dir, Options{})
	st.Append([]byte("a"))
	st.Snapshot(func(w io.Writer) error { _, err := w.Write([]byte("s1")); return err })
	st.Append([]byte("b"))
	st.Close()

	// Reopen against a FaultFS that crashes during the next snapshot's
	// atomic write; the old snapshot + tail must survive.
	fs := &fsutil.FaultFS{}
	st2, _, err := Open(dir, Options{FS: fs}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs.CrashAtWrite = fs.Writes() + 1
	err = st2.Snapshot(func(w io.Writer) error { _, werr := w.Write([]byte("s2")); return werr })
	if err == nil {
		t.Fatal("snapshot should fail under crash injection")
	}
	st2.Close()

	st3, recs, snap, stats := collect(t, dir, Options{})
	defer st3.Close()
	if string(snap) != "s1" || stats.SnapshotLSN != 1 {
		t.Fatalf("snap=%q stats=%+v, want old snapshot intact", snap, stats)
	}
	if len(recs) != 1 || string(recs[0]) != "b" {
		t.Fatalf("tail = %q", recs)
	}
}

func TestClosedStoreRejectsAppends(t *testing.T) {
	st, _, _, _ := collect(t, t.TempDir(), Options{})
	st.Close()
	if _, err := st.Append([]byte("x")); err == nil {
		t.Fatal("append after Close should fail")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	st, _, _, _ := collect(t, dir, Options{segmentBytes: 512})
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for i := 0; i < 50; i++ {
				if _, err := st.Append([]byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	st2, recs, _, stats := collect(t, dir, Options{segmentBytes: 512})
	defer st2.Close()
	if stats.LastLSN != 200 || len(recs) != 200 {
		t.Fatalf("stats=%+v recs=%d, want 200", stats, len(recs))
	}
}
