package watcher

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// startNotified starts a watcher whose poll runs once (the catch-up pass
// at Start) and then not for an hour, so whatever is announced afterwards
// was announced by the kernel's close notification.
func startNotified(t *testing.T, dir string, opts Options) *Watcher {
	t.Helper()
	opts.Interval = time.Hour
	w, err := New(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	t.Cleanup(w.Stop)
	if d := w.Stats().Detection; !strings.HasPrefix(d, "inotify + ") {
		t.Fatalf("close notification not in use: %s", d)
	}
	return w
}

// stageFile writes a file outside the watched directory, on its
// filesystem, ready to be renamed or linked in.
func stageFile(t *testing.T, stage, name string, size int) string {
	t.Helper()
	path := filepath.Join(stage, name)
	if err := os.WriteFile(path, make([]byte, size), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func assertSilence(t *testing.T, w *Watcher, d time.Duration, when string) {
	t.Helper()
	select {
	case e := <-w.Events():
		t.Fatalf("unexpected event %s: %+v", when, e)
	case <-time.After(d):
	}
}

func TestNotifyRenameIn(t *testing.T) {
	stage, dir := t.TempDir(), t.TempDir()
	w := startNotified(t, dir, Options{})
	staged := stageFile(t, stage, "a.emdg", 7)
	path := filepath.Join(dir, "a.emdg")
	if err := os.Rename(staged, path); err != nil {
		t.Fatal(err)
	}
	events := collect(t, w, 1, 2*time.Second)
	if events[0].Path != path || events[0].Size != 7 {
		t.Errorf("event = %+v", events[0])
	}
	if st := w.Stats(); st.ByNotify != 1 || st.ByScan != 0 {
		t.Errorf("stats = %+v, want the one file found by notification", st)
	}
}

// Closed is a fact the kernel reports, not an inference from a quiet
// size: a file held open for writing stays unannounced however long it
// is idle, and is announced once, complete, when the writer closes it.
func TestNotifyWaitsForClose(t *testing.T) {
	dir := t.TempDir()
	w := startNotified(t, dir, Options{})
	f, err := os.Create(filepath.Join(dir, "slow.emdg"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	assertSilence(t, w, 100*time.Millisecond, "while the writer holds the file open")
	if _, err := f.Write(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	events := collect(t, w, 1, 2*time.Second)
	if events[0].Size != 200 {
		t.Errorf("announced at %d bytes, want the final 200", events[0].Size)
	}
	assertSilence(t, w, 50*time.Millisecond, "after the one close")
}

func TestNotifyPatternAndRegularFilesOnly(t *testing.T) {
	stage, dir := t.TempDir(), t.TempDir()
	w := startNotified(t, dir, Options{Pattern: "*.emdg"})
	// Each of these raises IN_MOVED_TO; only the last is a matching
	// regular file. The kernel delivers in order, so once it is announced
	// the others have been considered and passed over.
	if err := os.Rename(stageFile(t, stage, "skip.txt", 1), filepath.Join(dir, "skip.txt")); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(stage, "dir.emdg"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(stage, "dir.emdg"), filepath.Join(dir, "dir.emdg")); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(stageFile(t, stage, "target", 1), filepath.Join(stage, "link.emdg")); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(stage, "link.emdg"), filepath.Join(dir, "link.emdg")); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(stageFile(t, stage, "take.emdg", 3), filepath.Join(dir, "take.emdg")); err != nil {
		t.Fatal(err)
	}
	events := collect(t, w, 1, 2*time.Second)
	if filepath.Base(events[0].Path) != "take.emdg" {
		t.Errorf("event = %+v", events[0])
	}
	assertSilence(t, w, 50*time.Millisecond, "after the one matching regular file")
}

// A hard link raises IN_CREATE only, which says nothing about whether
// the file is complete, so it falls to the poll — the fallback at work,
// and how the ledger benchmark's warm-up files appear.
func TestHardLinkFallsToScan(t *testing.T) {
	stage, dir := t.TempDir(), t.TempDir()
	w, err := New(dir, Options{Interval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	defer w.Stop()
	if d := w.Stats().Detection; !strings.HasPrefix(d, "inotify + 10ms scan") {
		t.Fatalf("close notification not in use: %s", d)
	}
	if err := os.Link(stageFile(t, stage, "a.emdg", 5), filepath.Join(dir, "a.emdg")); err != nil {
		t.Fatal(err)
	}
	collect(t, w, 1, 2*time.Second)
	if st := w.Stats(); st.ByNotify != 0 || st.ByScan != 1 {
		t.Errorf("stats = %+v, want the linked file found by the scan alone", st)
	}
}

// Both sources race for every file — the poll ticks each millisecond
// while 200 files are renamed in — and each file is announced by exactly
// one of them.
func TestExactlyOnceAcrossSources(t *testing.T) {
	const files = 200
	stage, dir := t.TempDir(), t.TempDir()
	w, err := New(dir, Options{Interval: time.Millisecond, SettlePolls: 1})
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	defer w.Stop()
	go func() {
		for i := 0; i < files; i++ {
			name := fmt.Sprintf("f%03d.emdg", i)
			if err := os.WriteFile(filepath.Join(stage, name), []byte("data"), 0o644); err != nil {
				t.Error(err)
				return
			}
			if err := os.Rename(filepath.Join(stage, name), filepath.Join(dir, name)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	seen := map[string]bool{}
	for _, e := range collect(t, w, files, 20*time.Second) {
		if seen[e.Path] {
			t.Errorf("%s announced twice", filepath.Base(e.Path))
		}
		seen[e.Path] = true
	}
	assertSilence(t, w, 50*time.Millisecond, "after every file was announced")
	if st := w.Stats(); st.ByNotify+st.ByScan != files {
		t.Errorf("stats = %+v, want the two sources to sum to %d", st, files)
	}
}

// The size-stable poll is the oracle for the notification path: one
// scripted sequence, driven once with each as the close signal, yields
// the same events, in the same order within each burst.
func TestNotifyMatchesScanOracle(t *testing.T) {
	type seen struct {
		Name string
		Size int64
	}
	run := func(t *testing.T, notify bool) [][]seen {
		stage, dir := t.TempDir(), t.TempDir()
		opts := Options{Interval: 2 * time.Millisecond, Pattern: "*.emdg"}
		if notify {
			opts.Interval = time.Hour
		}
		w, err := New(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !notify {
			forceScanOnly(w)
		}
		w.Start()
		defer w.Stop()
		renameIn := func(name string, size int) {
			t.Helper()
			if err := os.Rename(stageFile(t, stage, name, size), filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		}
		var bursts [][]seen
		expect := func(n int) {
			t.Helper()
			var burst []seen
			for _, e := range collect(t, w, n, 5*time.Second) {
				burst = append(burst, seen{filepath.Base(e.Path), e.Size})
			}
			bursts = append(bursts, burst)
		}

		renameIn("f01.emdg", 10)
		renameIn("f02.emdg", 20)
		renameIn("f03.emdg", 30)
		expect(3)

		// A rewrite with a changed size, beside a pattern miss and a
		// subdirectory with a matching name.
		renameIn("notes.txt", 5)
		if err := os.Mkdir(filepath.Join(dir, "sub.emdg"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "f02.emdg"), make([]byte, 25), 0o644); err != nil {
			t.Fatal(err)
		}
		expect(1)

		renameIn("f04.emdg", 40)
		renameIn("f05.emdg", 50)
		expect(2)
		assertSilence(t, w, 50*time.Millisecond, "after the script")
		return bursts
	}
	byNotify := run(t, true)
	byScan := run(t, false)
	if !reflect.DeepEqual(byNotify, byScan) {
		t.Errorf("notification announced %v\nthe scan announced   %v", byNotify, byScan)
	}
}

func openFDs(t *testing.T) int {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip(err)
	}
	return len(entries)
}

// Stop wakes a reader parked in read and takes everything Start made
// with it: no goroutine and no inotify descriptor survives a round.
func TestStopReleasesNotifier(t *testing.T) {
	dir := t.TempDir()
	fds, goroutines := openFDs(t), runtime.NumGoroutine()
	for round := 0; round < 50; round++ {
		w, err := New(dir, Options{Interval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		w.Start()
		if d := w.Stats().Detection; !strings.HasPrefix(d, "inotify + ") {
			t.Fatalf("round %d: close notification not in use: %s", round, d)
		}
		began := time.Now()
		w.Stop()
		if took := time.Since(began); took > time.Second {
			t.Fatalf("round %d: Stop took %v", round, took)
		}
	}
	if got := openFDs(t); got != fds {
		t.Errorf("%d descriptors open after 50 rounds, %d before", got, fds)
	}
	// Stop has waited for both goroutines to finish their work; give the
	// scheduler a moment to retire them.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > goroutines {
		t.Errorf("%d goroutines after 50 rounds, %d before", got, goroutines)
	}
}

// inotifyEvent encodes one struct inotify_event as the kernel lays it out.
func inotifyEvent(mask uint32, name string, pad int) []byte {
	ev := make([]byte, syscall.SizeofInotifyEvent+len(name)+pad)
	binary.NativeEndian.PutUint32(ev[4:], mask)
	binary.NativeEndian.PutUint32(ev[12:], uint32(len(name)+pad))
	copy(ev[syscall.SizeofInotifyEvent:], name)
	return ev
}

// What carries no file name — a queue overflow, a dropped watch — and
// what names a directory is passed over; those are the poll's to find.
func TestParseCloseNames(t *testing.T) {
	var buf []byte
	buf = append(buf, inotifyEvent(syscall.IN_CLOSE_WRITE, "a.emdg", 10)...)
	buf = append(buf, inotifyEvent(syscall.IN_Q_OVERFLOW, "", 0)...)
	buf = append(buf, inotifyEvent(syscall.IN_MOVED_TO|syscall.IN_ISDIR, "sub", 13)...)
	buf = append(buf, inotifyEvent(syscall.IN_IGNORED, "", 0)...)
	buf = append(buf, inotifyEvent(syscall.IN_MOVED_TO, "b.emdg", 2)...)
	want := []string{"a.emdg", "b.emdg"}
	if got := parseCloseNames(buf); !reflect.DeepEqual(got, want) {
		t.Errorf("names = %q, want %q", got, want)
	}
	if got := parseCloseNames(buf[:len(buf)-1]); !reflect.DeepEqual(got, want[:1]) {
		t.Errorf("names from a truncated buffer = %q, want %q", got, want[:1])
	}
}
