package transfer

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"picoprobe/internal/fsutil"
	"picoprobe/internal/landing"
)

// ChunkMover really moves bytes out of an endpoint root on the local
// filesystem through the chunk engine (engine.go): each file is split into
// ChunkBytes-sized chunks, a bounded pool of Streams workers lands the
// chunks as parallel ranged writes (SHA-256 of the source bytes computed
// before they leave), and a sequential verified merge re-reads the
// destination, checking every chunk digest while producing the whole-file
// checksum (the role checksums play in Globus Transfer). A file that is
// one chunk is merged by the write that lands it: its verified bytes are
// the whole file, so nothing is read back. Over the wire, a multi-chunk
// file every chunk of which one attempt lands is not read back either:
// the whole-file digest is folded, in chunk order, from the very bytes
// the daemon accepted, and a size check closes the file. Progress is
// recorded in a per-task chunk manifest — in memory always, mirrored under
// ManifestDir when set — so an interrupted or failed transfer resumes from
// the last verified chunk instead of restarting. Verification is not
// optional: the zero-value mover moves verified. With ChunkBytes 0 and
// Streams 1 the engine degenerates exactly to a single whole-file
// copy-and-verify per file, the pre-chunking behavior.
//
// The one deployment choice is where chunks land (Land): a directory on
// this machine, or a facility daemon over the wire protocol.
type ChunkMover struct {
	// ChunkBytes is the chunk size; <= 0 means one chunk per file
	// (whole-file framing).
	ChunkBytes int64
	// Streams bounds the concurrent chunk-copy workers per task; <= 1
	// means a single stream.
	Streams int
	// Tuner, when set, derives the chunk size (at task start) and the
	// in-flight stream window (re-read between chunk dispatches) from
	// measured path quality, overriding ChunkBytes and Streams. The task
	// fingerprint then pins the adaptive MODE rather than the measured
	// size, so a retry resumes the recorded chunk plan even after the
	// tuner's answer has moved. Nil keeps the fixed-flag behavior.
	Tuner RouteTuner
	// ManifestDir persists per-task chunk manifests so a new service
	// instance (post-crash, post-reboot) resumes partial transfers; empty
	// keeps manifests in memory only (in-service retries still resume).
	ManifestDir string
	// KillAfterChunks is a one-shot fault injection for tests and the
	// ingest walkthrough: the first attempt to complete this many chunk
	// copies aborts with an error, simulating a mid-transfer crash. 0
	// disables. Not meant for concurrent tasks.
	KillAfterChunks int
	// FS overrides the filesystem the chunk manifests are read and
	// written through (nil = the real one) — the torn-manifest tests'
	// fault-injection hook. Payload copies always use the real filesystem.
	FS fsutil.FS
	// Land is where chunks land. Nil: the destination endpoint's Root is
	// a local directory, written through a landing store — the same
	// store, and so the same disk code, a facility daemon serves from.
	// Set: the destination endpoint's Root is a daemon's host:port and
	// chunks are shipped to it over this link.
	Land *WireLanding

	// What the mover keeps across attempts: the chunk manifests and the
	// one-shot kill latch.
	killed    atomic.Bool
	manifests *manifestStore
	initOnce  sync.Once
}

// Move implements Mover. The copy runs on its own goroutines; done is
// called exactly once.
func (m *ChunkMover) Move(task *Task, src, dst *Endpoint, done func(Report, error)) {
	go func() {
		var sk sink = localSink{landing.Store{Root: dst.Root}}
		if m.Land != nil {
			sk = wireSink{m.Land.client(dst.Root)}
		}
		done(m.run(task, src, dst, sk))
	}()
}

// RetryDelay implements retrySpacer: retries against a daemon over a
// network need spacing (the link's back-off); a local landing is retried
// at once.
func (m *ChunkMover) RetryDelay(attempt int) time.Duration {
	switch {
	case m.Land == nil:
		return 0
	case m.Land.RetryBackoff != nil:
		return m.Land.RetryBackoff.Delay(attempt)
	}
	return defaultRetryBackoff.Delay(attempt)
}

// Close drops the link's pooled wire sessions, if there is a link.
func (m *ChunkMover) Close() error {
	if m.Land != nil {
		m.Land.close()
	}
	return nil
}

// localSink lands chunks in a landing store on the local filesystem.
// Stat, Prepare, Hash and Merge are the store's own.
type localSink struct {
	landing.Store
}

// Write streams one ranged slice from src into the store, hashing the
// bytes in-flight on their way in. A whole span the store reports as the
// whole file is merged: the in-flight digest is the file's. The chunk is
// never held whole, so it is not folded: a multi-chunk file is merged.
func (s localSink) Write(rel string, sp chunkSpan, src io.ReaderAt, _ *fold) (string, bool, error) {
	h := sha256.New()
	n, whole, err := s.Store.Write(rel, sp.Off, io.TeeReader(io.NewSectionReader(src, sp.Off, sp.N), h))
	if err != nil {
		return "", false, fmt.Errorf("transfer: copy chunk @%d: %w", sp.Off, err)
	}
	if n != sp.N {
		return "", false, fmt.Errorf("transfer: chunk @%d short copy: %d of %d bytes", sp.Off, n, sp.N)
	}
	return hex.EncodeToString(h.Sum(nil)), sp.Whole && whole, nil
}

// RouteTuner yields the transfer framing a route should use right now.
// The adaptive engines consult it at task start (streams and chunk size)
// and again between chunk launches (streams), so a transfer crossing a
// bandwidth ramp widens or narrows its in-flight window mid-task. The
// chunk size in use is pinned per task at first attempt — the resume
// state's chunk plan must stay stable across retries — so only new tasks
// pick up a re-tuned chunk size. Implementations must be safe for
// concurrent use (the chunk mover calls Tune from its dispatcher
// goroutine). Returning 0 for either value means "no opinion": the
// route's fixed setting applies.
type RouteTuner interface {
	Tune() (streams int, chunkBytes int64)
}

// adaptiveChunkSentinel replaces the chunk size in the task fingerprint
// when a tuner drives the framing: the measured chunk size may differ
// between attempts, and fingerprinting it would orphan the manifest the
// resume depends on. The recorded manifest's chunk plan wins instead.
const adaptiveChunkSentinel int64 = -1
