package watcher

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"picoprobe/internal/fsutil"
)

func fastOpts() Options {
	return Options{Interval: 5 * time.Millisecond, SettlePolls: 2}
}

func collect(t *testing.T, w *Watcher, n int, timeout time.Duration) []Event {
	t.Helper()
	var out []Event
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case e, ok := <-w.Events():
			if !ok {
				return out
			}
			out = append(out, e)
		case <-deadline:
			t.Fatalf("timed out with %d of %d events", len(out), n)
		}
	}
	return out
}

func TestDetectsNewFile(t *testing.T) {
	dir := t.TempDir()
	w, err := New(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	defer w.Stop()
	path := filepath.Join(dir, "a.emdg")
	if err := os.WriteFile(path, []byte("data"), 0o644); err != nil {
		t.Fatal(err)
	}
	events := collect(t, w, 1, 2*time.Second)
	if events[0].Path != path || events[0].Size != 4 {
		t.Errorf("event = %+v", events[0])
	}
	if w.Processed() != 1 {
		t.Errorf("processed = %d", w.Processed())
	}
}

// TestGrowingFileSettlesFirst drives the poll loop directly instead of
// racing a ticker against file appends (the timer-based version was
// flaky under -race on loaded 1-vCPU machines): each write is followed
// by exactly one poll, so the settle counting is fully deterministic.
func TestGrowingFileSettlesFirst(t *testing.T) {
	dir := t.TempDir()
	// The interval is irrelevant — polls are issued by hand.
	w, err := New(dir, Options{Interval: time.Hour, SettlePolls: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "grow.emdg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	noEvent := func(when string) {
		t.Helper()
		select {
		case e := <-w.Events():
			t.Fatalf("premature event %s: %+v", when, e)
		default:
		}
	}
	// While the file grows, every poll sees a new size and must not
	// announce it.
	for i := 0; i < 5; i++ {
		if _, err := f.Write(make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		w.poll()
		noEvent("while growing")
	}
	f.Close()
	// Stable size: the file settles only after SettlePolls unchanged
	// polls, and not one sooner.
	for i := 0; i < 3; i++ {
		noEvent("before settle polls elapsed")
		w.poll()
	}
	select {
	case e := <-w.Events():
		if e.Size != 500 {
			t.Errorf("final size = %d, want 500", e.Size)
		}
	default:
		t.Fatal("no event after settle polls elapsed")
	}
	if w.Processed() != 1 {
		t.Errorf("processed = %d", w.Processed())
	}
}

func TestPatternFiltering(t *testing.T) {
	dir := t.TempDir()
	opts := fastOpts()
	opts.Pattern = "*.emdg"
	w, err := New(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	defer w.Stop()
	os.WriteFile(filepath.Join(dir, "skip.txt"), []byte("no"), 0o644)
	os.WriteFile(filepath.Join(dir, "take.emdg"), []byte("yes"), 0o644)
	events := collect(t, w, 1, 2*time.Second)
	if filepath.Base(events[0].Path) != "take.emdg" {
		t.Errorf("event = %+v", events[0])
	}
	select {
	case e := <-w.Events():
		t.Fatalf("unexpected second event: %+v", e)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestSubdirectoriesIgnored(t *testing.T) {
	dir := t.TempDir()
	os.Mkdir(filepath.Join(dir, "sub"), 0o755)
	w, _ := New(dir, fastOpts())
	w.Start()
	defer w.Stop()
	select {
	case e := <-w.Events():
		t.Fatalf("event for directory: %+v", e)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestCheckpointPreventsReprocessing(t *testing.T) {
	dir := t.TempDir()
	cp := filepath.Join(t.TempDir(), "watch.json")
	opts := fastOpts()
	opts.CheckpointPath = cp

	w1, err := New(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	w1.Start()
	os.WriteFile(filepath.Join(dir, "a.emdg"), []byte("data"), 0o644)
	collect(t, w1, 1, 2*time.Second)
	w1.Stop()

	// "Reboot": a fresh watcher with the same checkpoint must not
	// re-announce the file, but must announce a genuinely new one.
	w2, err := New(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if w2.Processed() != 1 {
		t.Fatalf("restored processed = %d", w2.Processed())
	}
	w2.Start()
	defer w2.Stop()
	os.WriteFile(filepath.Join(dir, "b.emdg"), []byte("fresh"), 0o644)
	events := collect(t, w2, 1, 2*time.Second)
	if filepath.Base(events[0].Path) != "b.emdg" {
		t.Errorf("re-announced old file: %+v", events[0])
	}
}

func TestRewrittenFileReannounced(t *testing.T) {
	dir := t.TempDir()
	w, _ := New(dir, fastOpts())
	w.Start()
	defer w.Stop()
	path := filepath.Join(dir, "a.emdg")
	os.WriteFile(path, []byte("v1"), 0o644)
	collect(t, w, 1, 2*time.Second)
	// Rewrite with different content size: should fire again.
	os.WriteFile(path, []byte("version-2"), 0o644)
	events := collect(t, w, 1, 2*time.Second)
	if events[0].Size != 9 {
		t.Errorf("rewrite event = %+v", events[0])
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(filepath.Join(t.TempDir(), "missing"), fastOpts()); err == nil {
		t.Error("missing dir accepted")
	}
	file := filepath.Join(t.TempDir(), "f")
	os.WriteFile(file, []byte("x"), 0o644)
	if _, err := New(file, fastOpts()); err == nil {
		t.Error("non-directory accepted")
	}
	opts := fastOpts()
	opts.Pattern = "[" // invalid glob
	if _, err := New(t.TempDir(), opts); err == nil {
		t.Error("bad pattern accepted")
	}
}

func TestCorruptCheckpointRejected(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(cp, []byte("{corrupt"), 0o644)
	opts := fastOpts()
	opts.CheckpointPath = cp
	if _, err := New(t.TempDir(), opts); err == nil {
		t.Error("corrupt checkpoint accepted")
	}
}

func TestStopIdempotent(t *testing.T) {
	w, _ := New(t.TempDir(), fastOpts())
	w.Start()
	w.Stop()
	w.Stop() // second stop must not panic
}

// A checkpoint save failure (injected at the filesystem) must not stop
// the event stream, but it must surface through CheckpointErr — before
// this hook the failed rename vanished and operators could not tell the
// processed-file set was no longer being persisted.
func TestCheckpointSaveFailureSurfaced(t *testing.T) {
	dir := t.TempDir()
	opts := fastOpts()
	opts.CheckpointPath = filepath.Join(t.TempDir(), "cp.json")
	opts.FS = &fsutil.FaultFS{FailWriteAt: 1}
	w, err := New(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	defer w.Stop()
	if err := os.WriteFile(filepath.Join(dir, "a.emdg"), []byte("data"), 0o644); err != nil {
		t.Fatal(err)
	}
	collect(t, w, 1, 2*time.Second)
	if w.CheckpointErr() == nil {
		t.Error("checkpoint save failure not surfaced")
	}

	// The next save (fault is one-shot) succeeds and clears the error.
	if err := os.WriteFile(filepath.Join(dir, "b.emdg"), []byte("data2"), 0o644); err != nil {
		t.Fatal(err)
	}
	collect(t, w, 1, 2*time.Second)
	if err := w.CheckpointErr(); err != nil {
		t.Errorf("checkpoint error not cleared after good save: %v", err)
	}
}

// A watcher checkpoint torn by a crash mid-write must be rejected at
// startup (loud error), never treated as an empty processed set — that
// would re-trigger flows for every file in the directory.
func TestTornWatcherCheckpointRejected(t *testing.T) {
	dir := t.TempDir()
	cpPath := filepath.Join(t.TempDir(), "cp.json")
	opts := fastOpts()
	opts.CheckpointPath = cpPath
	w, err := New(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	if err := os.WriteFile(filepath.Join(dir, "a.emdg"), []byte("data"), 0o644); err != nil {
		t.Fatal(err)
	}
	collect(t, w, 1, 2*time.Second)
	w.Stop()

	raw, err := os.ReadFile(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(cpPath, int64(len(raw)/2)); err != nil {
		t.Fatal(err)
	}
	if _, err := New(dir, opts); err == nil {
		t.Fatal("torn checkpoint accepted silently")
	}
}

// forceScanOnly is the test seam that takes the kernel close notification
// away, as on a machine out of inotify instances (or not running Linux).
func forceScanOnly(w *Watcher) {
	w.openNotifier = func(string, <-chan struct{}) (*closeNotifier, error) {
		return nil, errors.New("forced off by test")
	}
}

// Every existing behavior must hold with the poll as the only signal;
// this is also what the paper's Windows and macOS machines run.
func TestNotifierFailureDegradesToScan(t *testing.T) {
	dir := t.TempDir()
	w, err := New(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	forceScanOnly(w)
	w.Start()
	defer w.Stop()
	if d := w.Stats().Detection; !strings.Contains(d, "5ms × 2 scan") || !strings.Contains(d, "forced off by test") {
		t.Errorf("detection = %q, want the scan cadence and the reason", d)
	}
	if err := os.WriteFile(filepath.Join(dir, "a.emdg"), []byte("data"), 0o644); err != nil {
		t.Fatal(err)
	}
	collect(t, w, 1, 2*time.Second)
	if st := w.Stats(); st.ByScan != 1 || st.ByNotify != 0 {
		t.Errorf("stats = %+v, want the one file found by the scan", st)
	}
}

// A file the poll is still settling and the kernel then reports closed
// is announced at once and leaves no pending entry behind.
func TestCloseNoticeClearsPending(t *testing.T) {
	dir := t.TempDir()
	w, err := New(dir, Options{Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "a.emdg"), []byte("data"), 0o644); err != nil {
		t.Fatal(err)
	}
	w.poll()
	if len(w.pending) != 1 {
		t.Fatalf("pending = %d after the first poll, want 1", len(w.pending))
	}
	w.closed([]string{"a.emdg", "a.emdg"}) // a second close of the unchanged file is no second event
	if got := len(w.Events()); got != 1 {
		t.Fatalf("%d events, want 1", got)
	}
	if len(w.pending) != 0 {
		t.Errorf("pending = %d after the close notice, want 0", len(w.pending))
	}
	for i := 0; i < 3; i++ {
		w.poll()
	}
	if got := len(w.Events()); got != 1 {
		t.Errorf("the poll re-announced a notified file: %d events", got)
	}
	if st := w.Stats(); st.ByNotify != 1 || st.ByScan != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// renameCountFS counts checkpoint saves where they land: each atomic
// write ends in exactly one Rename.
type renameCountFS struct {
	fsutil.FS
	renames atomic.Int64
}

func (c *renameCountFS) Rename(oldpath, newpath string) error {
	c.renames.Add(1)
	return c.FS.Rename(oldpath, newpath)
}

// A burst is marked and checkpointed as one group — one whole-set
// rewrite, not one per file — whichever source finds it.
func TestBurstCheckpointedOnce(t *testing.T) {
	const burst = 40
	sources := map[string]func(w *Watcher, names []string){
		"scan": func(w *Watcher, _ []string) {
			for i := 0; i < 3; i++ { // first sight + 2 settle polls
				w.poll()
			}
		},
		"notify": func(w *Watcher, names []string) { w.closed(names) },
	}
	for source, drive := range sources {
		t.Run(source, func(t *testing.T) {
			dir := t.TempDir()
			fs := &renameCountFS{FS: fsutil.OS}
			w, err := New(dir, Options{
				Interval:       time.Hour,
				CheckpointPath: filepath.Join(t.TempDir(), "cp.json"),
				FS:             fs,
			})
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for i := 0; i < burst; i++ {
				name := fmt.Sprintf("f%02d.emdg", i)
				names = append(names, name)
				if err := os.WriteFile(filepath.Join(dir, name), []byte("data"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			drive(w, names)
			if got := len(w.Events()); got != burst {
				t.Fatalf("%d events, want %d", got, burst)
			}
			for i := 0; i < burst; i++ {
				if e := <-w.Events(); filepath.Base(e.Path) != names[i] {
					t.Fatalf("event %d = %s, want %s", i, filepath.Base(e.Path), names[i])
				}
			}
			if got := fs.renames.Load(); got > 3 {
				t.Errorf("%d checkpoint saves for a %d-file burst, want ≤ 3", got, burst)
			}
			if st := w.Stats(); int64(st.CheckpointSaves) != fs.renames.Load() {
				t.Errorf("Stats counts %d saves, the filesystem saw %d", st.CheckpointSaves, fs.renames.Load())
			}
		})
	}
}

// The group's save precedes its first emit: by the time an event is
// received, the checkpoint on disk already holds its file.
func TestCheckpointedBeforeAnnounced(t *testing.T) {
	dir := t.TempDir()
	opts := fastOpts()
	opts.CheckpointPath = filepath.Join(t.TempDir(), "cp.json")
	w, err := New(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	defer w.Stop()
	for i := 0; i < 10; i++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("f%02d.emdg", i)), []byte("data"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range collect(t, w, 10, 5*time.Second) {
		raw, err := os.ReadFile(opts.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		var saved map[string]json.RawMessage
		if err := json.Unmarshal(raw, &saved); err != nil {
			t.Fatal(err)
		}
		if _, ok := saved[e.Path]; !ok {
			t.Errorf("%s announced before it was checkpointed", filepath.Base(e.Path))
		}
	}
}

// Format pin: a checkpoint as the pre-notification watcher wrote it
// (json.MarshalIndent of path → {size, mod_time}) still loads and still
// suppresses re-announcement, under both sources.
func TestOlderCheckpointLoads(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "old.emdg")
	if err := os.WriteFile(old, []byte("data"), 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(old)
	if err != nil {
		t.Fatal(err)
	}
	opts := fastOpts()
	opts.CheckpointPath = filepath.Join(t.TempDir(), "cp.json")
	written := fmt.Sprintf("{\n  %q: {\n    \"size\": 4,\n    \"mod_time\": %q\n  }\n}", old, info.ModTime().Format(time.RFC3339Nano))
	if err := os.WriteFile(opts.CheckpointPath, []byte(written), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := New(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if w.Processed() != 1 {
		t.Fatalf("restored processed = %d", w.Processed())
	}
	w.Start()
	defer w.Stop()
	// Where the kernel notifies, this is a close notice for the recorded,
	// unchanged file.
	if f, err := os.OpenFile(old, os.O_WRONLY, 0); err == nil {
		f.Close()
	}
	if err := os.WriteFile(filepath.Join(dir, "new.emdg"), []byte("fresh"), 0o644); err != nil {
		t.Fatal(err)
	}
	events := collect(t, w, 1, 2*time.Second)
	if filepath.Base(events[0].Path) != "new.emdg" {
		t.Errorf("re-announced a file the older checkpoint records: %+v", events[0])
	}
}

// BenchmarkWatcherCloseToEvent times rename-in → Event as the shipped
// binary runs the watcher (default cadence, checkpoint on): the live
// path's watcher.settle_p50_ms (bench/README.md), with the kernel close
// notification and with the poll alone. The save before the emit is most
// of the notify figure.
func BenchmarkWatcherCloseToEvent(b *testing.B) {
	for _, source := range []string{"notify", "scan"} {
		b.Run(source, func(b *testing.B) {
			stage, dir := b.TempDir(), b.TempDir()
			w, err := New(dir, Options{CheckpointPath: filepath.Join(b.TempDir(), "cp.json")})
			if err != nil {
				b.Fatal(err)
			}
			if source == "scan" {
				forceScanOnly(w)
			}
			w.Start()
			defer w.Stop()
			if source == "notify" && !strings.HasPrefix(w.Stats().Detection, "inotify") {
				b.Skip(w.Stats().Detection)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				name := fmt.Sprintf("f%06d.emdg", i)
				if err := os.WriteFile(filepath.Join(stage, name), []byte("data"), 0o644); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := os.Rename(filepath.Join(stage, name), filepath.Join(dir, name)); err != nil {
					b.Fatal(err)
				}
				select {
				case <-w.Events():
				case <-time.After(5 * time.Second):
					b.Fatal("no event")
				}
			}
		})
	}
}
