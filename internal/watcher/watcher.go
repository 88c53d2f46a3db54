// Package watcher triggers flows when the instrument writes new files,
// playing the role of the paper's cross-platform watchdog-based trigger
// application. It is stdlib-only, and it learns that a file is complete
// from two sources feeding one loop:
//
//   - the kernel's close notification (Linux inotify, notify_linux.go):
//     IN_CLOSE_WRITE — a writer closed the file — and IN_MOVED_TO — a
//     finished file was renamed in — the two ways an instrument PC or an
//     export tool completes a file. Such a file is announced within
//     milliseconds, with no settle wait, because "closed" is a fact, not
//     an inference. IN_CREATE and IN_MODIFY are deliberately not taken: a
//     created or growing file is not known complete;
//   - the size-stable poll: a file is announced once its size has been
//     unchanged for several polls (the instrument writes multi-hundred-
//     megabyte files, and half-written files must not start flows). It is
//     the only signal on the paper's Windows 10 / macOS user machines,
//     the catch-up pass for files that landed while the watcher was down,
//     and the only thing that sees what raises neither event: a hard
//     link, a remote writer on an NFS/SMB mount, events lost to a queue
//     overflow, a dropped watch, a machine out of inotify instances.
//
// Both sources apply one mark test on one goroutine — a path already
// processed with the same size and mtime is skipped — so whichever sees
// a file first announces it and the other finds the mark: exactly once
// per (path, size, mtime). A changed size or mtime makes a file eligible
// again, and on the notification path without the poll's settle grace:
// every close of a changed file is an announcement, so an instrument that
// appends to one file over several sessions should write to a temporary
// name and rename it in when done.
//
// Processed files are recorded in a checkpoint so that restarting the
// watcher after a reboot or on a subsequent day does not re-trigger flows
// for data already handled. What one poll or one notification read makes
// ready is marked and checkpointed once, as a group, before its first
// event is sent.
//
// Downstream of the raw event stream sits the Batcher, the acquisition
// side of the ingest data plane (DESIGN.md §8): settled files coalesce
// into multi-file batches — one transfer task per detector burst instead
// of one per file — and a bytes-in-flight budget applies backpressure so
// a burst cannot bury the transfer service under an unbounded backlog.
package watcher

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"picoprobe/internal/fsutil"
)

// Event announces one complete, unprocessed file.
type Event struct {
	Path    string
	Size    int64
	ModTime time.Time
}

// Options configures a Watcher.
type Options struct {
	// Interval is the poll period (default 200ms).
	Interval time.Duration
	// SettlePolls is how many consecutive polls a file's size must be
	// unchanged before the poll announces it (default 2). Files the kernel
	// reports closed do not wait for it.
	SettlePolls int
	// Pattern, when non-empty, is a filepath.Match glob applied to base
	// names (e.g. "*.emdg").
	Pattern string
	// CheckpointPath, when non-empty, persists the processed-file set as
	// JSON so restarts do not re-announce old files.
	CheckpointPath string
	// FS overrides the filesystem the checkpoint is read and written
	// through (nil = the real one) — the hook the torn-checkpoint tests
	// use. Directory polling always uses the real filesystem.
	FS fsutil.FS
}

// Stats counts a watcher's activity since New and names its close signal.
type Stats struct {
	// ByNotify and ByScan count announced files by the source that saw
	// them complete first: the kernel's close notification or the
	// size-stable poll.
	ByNotify, ByScan int
	// CheckpointSaves counts checkpoint writes attempted (one per
	// announced group, not per file).
	CheckpointSaves int
	// Detection describes the close signal in use, set by Start:
	// "inotify + 200ms scan", or "200ms × 2 scan (inotify unavailable:
	// <why>)" when the poll is the only source.
	Detection string
}

// fileMark fingerprints a processed file; a changed size or mtime makes
// the file eligible again (it was rewritten).
type fileMark struct {
	Size    int64     `json:"size"`
	ModTime time.Time `json:"mod_time"`
}

// Watcher watches one directory and emits events for new complete files.
type Watcher struct {
	dir  string
	opts Options
	// openNotifier is newCloseNotifier; tests replace it to force the
	// poll-only fallback.
	openNotifier func(dir string, stop <-chan struct{}) (*closeNotifier, error)

	mu        sync.Mutex
	processed map[string]fileMark
	pending   map[string]*pendingFile
	saveErr   error
	stats     Stats

	events   chan Event
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

type pendingFile struct {
	lastSize int64
	stable   int
}

// New creates a watcher over dir, loading the checkpoint if one exists.
func New(dir string, opts Options) (*Watcher, error) {
	st, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("watcher: %w", err)
	}
	if !st.IsDir() {
		return nil, fmt.Errorf("watcher: %s is not a directory", dir)
	}
	if opts.Interval <= 0 {
		opts.Interval = 200 * time.Millisecond
	}
	if opts.SettlePolls <= 0 {
		opts.SettlePolls = 2
	}
	if opts.Pattern != "" {
		if _, err := filepath.Match(opts.Pattern, "probe"); err != nil {
			return nil, fmt.Errorf("watcher: bad pattern %q: %w", opts.Pattern, err)
		}
	}
	if opts.FS == nil {
		opts.FS = fsutil.OS
	}
	w := &Watcher{
		dir:          dir,
		opts:         opts,
		openNotifier: newCloseNotifier,
		processed:    map[string]fileMark{},
		pending:      map[string]*pendingFile{},
		events:       make(chan Event, 64),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	if opts.CheckpointPath != "" {
		if err := w.loadCheckpoint(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// Events returns the channel on which complete files are announced. The
// channel is closed after Stop.
func (w *Watcher) Events() <-chan Event { return w.events }

// Start opens the kernel close notification where the OS has one and
// begins watching on a background goroutine: one loop owns the processed
// and pending sets and serves both sources, so a file is announced by
// whichever sees it first and never by both. Without notification the
// poll carries on alone, and Stats says so.
func (w *Watcher) Start() {
	notifier, err := w.openNotifier(w.dir, w.stop)
	w.describeDetection(err)

	go func() {
		defer close(w.done)
		defer close(w.events)
		var closed <-chan []string // nil (never ready) without a notifier
		if notifier != nil {
			defer notifier.close()
			closed = notifier.names
		}
		ticker := time.NewTicker(w.opts.Interval)
		defer ticker.Stop()
		// The first poll is the catch-up pass for files that landed while
		// no watcher was running.
		w.poll()
		for {
			select {
			case <-w.stop:
				return
			case <-ticker.C:
				w.poll()
			case names, ok := <-closed:
				if !ok {
					closed = nil
					w.describeDetection(notifier.err)
					continue
				}
				w.closed(names)
			}
		}
	}()
}

// describeDetection records the close signal in use: notification beside
// the poll, or — with the reason notification is unavailable — the poll
// alone.
func (w *Watcher) describeDetection(unavailable error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if unavailable == nil {
		w.stats.Detection = fmt.Sprintf("inotify + %v scan", w.opts.Interval)
		return
	}
	w.stats.Detection = fmt.Sprintf("%v × %d scan (inotify unavailable: %v)", w.opts.Interval, w.opts.SettlePolls, unavailable)
}

// Stop halts watching and waits for the loop and the notification reader
// to exit.
func (w *Watcher) Stop() {
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
}

// Processed reports how many files have been announced (including those
// recorded by a previous session's checkpoint).
func (w *Watcher) Processed() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.processed)
}

// CheckpointErr reports the most recent checkpoint-save failure, nil if
// the last save succeeded. A failing checkpoint does not stop the event
// stream (the worst case is a duplicate flow after restart, which the
// flow layer tolerates), but operators must be able to see it.
func (w *Watcher) CheckpointErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.saveErr
}

// Stats returns a snapshot of the watcher's counters and close signal.
func (w *Watcher) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// matches applies Pattern to a base name.
func (w *Watcher) matches(name string) bool {
	if w.opts.Pattern == "" {
		return true
	}
	ok, _ := filepath.Match(w.opts.Pattern, name)
	return ok
}

// markedLocked is the one mark test both sources apply: the file at path
// was already announced in its present size and mtime.
func (w *Watcher) markedLocked(path string, info os.FileInfo) bool {
	mark, ok := w.processed[path]
	return ok && mark.Size == info.Size() && mark.ModTime.Equal(info.ModTime())
}

// markLocked records a complete file as processed, counts it for the
// source that found it, and returns its event.
func (w *Watcher) markLocked(path string, info os.FileInfo, by *int) Event {
	delete(w.pending, path)
	w.processed[path] = fileMark{Size: info.Size(), ModTime: info.ModTime()}
	*by++
	return Event{Path: path, Size: info.Size(), ModTime: info.ModTime()}
}

// poll is one size-stable scan of the directory: every matching file not
// yet marked advances its settle count, and those that reach SettlePolls
// are announced as one group, in name order.
func (w *Watcher) poll() {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return // transient: directory may be briefly unavailable
	}
	var group []Event
	for _, entry := range entries {
		if entry.IsDir() || !w.matches(entry.Name()) {
			continue
		}
		info, err := entry.Info()
		if err != nil {
			continue
		}
		path := filepath.Join(w.dir, entry.Name())

		w.mu.Lock()
		if ev, ok := w.settleLocked(path, info); ok {
			group = append(group, ev)
		}
		w.mu.Unlock()
	}
	w.announce(group)
}

// settleLocked advances one file's settle count and marks it once its
// size has been unchanged for SettlePolls polls after the one that first
// saw it.
func (w *Watcher) settleLocked(path string, info os.FileInfo) (Event, bool) {
	if w.markedLocked(path, info) {
		return Event{}, false
	}
	p := w.pending[path]
	if p == nil {
		w.pending[path] = &pendingFile{lastSize: info.Size()}
		return Event{}, false
	}
	if info.Size() != p.lastSize {
		p.lastSize = info.Size()
		p.stable = 0
		return Event{}, false
	}
	p.stable++
	if p.stable < w.opts.SettlePolls {
		return Event{}, false
	}
	return w.markLocked(path, info, &w.stats.ByScan), true
}

// closed handles the names of one notification read — files a writer
// closed or that were renamed in — announcing the regular, matching,
// unmarked ones as one group, in kernel order, with no settle wait. A
// file the poll was still settling loses its pending entry.
func (w *Watcher) closed(names []string) {
	var group []Event
	for _, name := range names {
		if !w.matches(name) {
			continue
		}
		path := filepath.Join(w.dir, name)
		info, err := os.Lstat(path)
		if err != nil || !info.Mode().IsRegular() {
			continue // already gone, or a directory, link or device
		}
		w.mu.Lock()
		if !w.markedLocked(path, info) {
			group = append(group, w.markLocked(path, info, &w.stats.ByNotify))
		}
		w.mu.Unlock()
	}
	w.announce(group)
}

// announce checkpoints a marked group once and then emits it in order.
// The save precedes the first emit, so a restart never re-announces a
// file whose event was received.
func (w *Watcher) announce(group []Event) {
	if len(group) == 0 {
		return
	}
	w.mu.Lock()
	w.saveCheckpointLocked()
	w.mu.Unlock()
	for _, ev := range group {
		select {
		case w.events <- ev:
		case <-w.stop:
			return
		}
	}
}

func (w *Watcher) loadCheckpoint() error {
	raw, err := w.opts.FS.ReadFile(w.opts.CheckpointPath)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("watcher: read checkpoint: %w", err)
	}
	var processed map[string]fileMark
	if err := json.Unmarshal(raw, &processed); err != nil {
		return fmt.Errorf("watcher: corrupt checkpoint %s: %w", w.opts.CheckpointPath, err)
	}
	w.processed = processed
	return nil
}

// saveCheckpointLocked persists the processed set atomically and
// durably. Failures do not stop the event stream, but they are no longer
// swallowed: the error (including a failed rename, which previously
// vanished) is retained for CheckpointErr.
func (w *Watcher) saveCheckpointLocked() {
	if w.opts.CheckpointPath == "" {
		return
	}
	w.stats.CheckpointSaves++
	raw, err := json.MarshalIndent(w.processed, "", "  ")
	if err != nil {
		w.saveErr = fmt.Errorf("watcher: marshal checkpoint: %w", err)
		return
	}
	w.saveErr = fsutil.WriteFileAtomicFS(w.opts.FS, w.opts.CheckpointPath, raw, 0o644)
}
