package watcher

import (
	"sync"
	"time"
)

// Batch is a coalesced group of settled files, emitted in settle order —
// the multi-file transfer task the ingest data plane moves as one unit.
type Batch struct {
	// Seq numbers batches from 1 in emission order.
	Seq int
	// Files are the batch's events in the order they settled.
	Files []Event
	// Bytes is the batch's total payload.
	Bytes int64
}

// BatchOptions configures a Batcher.
type BatchOptions struct {
	// MaxBatchFiles caps how many files one batch may hold (default 16).
	MaxBatchFiles int
	// MaxBatchBytes caps a batch's payload; a single file larger than the
	// cap still travels (as a batch of one). 0 means uncapped.
	MaxBatchBytes int64
	// Linger is the quiet period after the last pending event before a
	// below-threshold batch is flushed although earlier batches are still
	// held (default 200ms); every event restarts it. It decides only for
	// a consumer that holds several batches at once: with nothing held a
	// pending batch leaves after idleGather, and behind one held batch it
	// leaves at Done, so a consumer that runs one batch at a time — every
	// shipped binary — never waits for it.
	Linger time.Duration
	// BudgetBytes is the bytes-in-flight backpressure budget: batches are
	// cut to fit it, and the next batch is withheld while acknowledged-
	// but-unfinished bytes plus the candidate would exceed it. A single
	// file larger than the whole budget still travels alone (when nothing
	// else is in flight) rather than deadlocking the pipeline. 0 disables
	// backpressure.
	BudgetBytes int64
}

// BatchStats counts a batcher's lifetime activity.
type BatchStats struct {
	// Batches and Files are the emitted totals.
	Batches, Files int
	// Bytes is the emitted payload total.
	Bytes int64
	// MaxInFlightBytes is the high-water mark of unacknowledged bytes.
	MaxInFlightBytes int64
}

// idleGather is how long the event stream must have been quiet before a
// pending batch leaves for an idle consumer (no batch handed over and not
// yet released). It is a gap, re-armed by every event, not a delay from
// the first one: a burst renamed in back to back reaches the batcher as a
// few groups 0.6–1.7 ms apart (one per inotify read), and a gap of 5 ms
// keeps them one batch where a fixed 1 ms gather split them; a lone file
// pays it once (DESIGN.md §8).
const idleGather = 5 * time.Millisecond

// Batcher coalesces watcher events into multi-file batches under a
// bytes-in-flight budget. Where the pre-rework pipeline started one
// transfer task per settled file, the batcher shapes bursts into a few
// large tasks and throttles announcement when too much data is already in
// flight — the backpressure half of the ingest data plane (DESIGN.md §8).
// It is work-conserving: an idle consumer is handed what is pending as
// soon as the stream pauses, a busy one finds everything that arrived
// meanwhile waiting as one batch — batch size follows load, not a timer.
//
// Call Done with each consumed batch once its downstream work (transfer,
// flow) completes; that releases its bytes from the budget and, once no
// batch is held, lets the next one start without waiting for Linger.
type Batcher struct {
	opts    BatchOptions
	out     chan Batch
	release chan int64
	stop    chan struct{}
	done    chan struct{}

	mu    sync.Mutex
	stats BatchStats
}

// NewBatcher starts a batcher consuming events (normally Watcher.Events).
// The batcher stops, flushes pending files and closes Batches when events
// is closed, or immediately on Stop.
func NewBatcher(events <-chan Event, opts BatchOptions) *Batcher {
	if opts.MaxBatchFiles <= 0 {
		opts.MaxBatchFiles = 16
	}
	if opts.Linger <= 0 {
		opts.Linger = 200 * time.Millisecond
	}
	b := &Batcher{
		opts:    opts,
		out:     make(chan Batch),
		release: make(chan int64, 64),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go b.run(events)
	return b
}

// Batches returns the channel on which coalesced batches are emitted. It
// is closed after the event source closes (with a final flush) or Stop.
func (b *Batcher) Batches() <-chan Batch { return b.out }

// Done releases a consumed batch's bytes from the in-flight budget.
func (b *Batcher) Done(batch Batch) {
	select {
	case b.release <- batch.Bytes:
	case <-b.done:
	}
}

// Stats returns a snapshot of the batcher's counters.
func (b *Batcher) Stats() BatchStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// Stop halts the batcher without waiting for pending batches.
func (b *Batcher) Stop() {
	select {
	case <-b.stop:
	default:
		close(b.stop)
	}
	<-b.done
}

func (b *Batcher) run(events <-chan Event) {
	defer close(b.done)
	defer close(b.out)

	var (
		pending  []Event
		bytes    int64
		inFlight int64 // bytes handed over and not yet released
		held     int   // batches handed over and not yet released
		lingerC  <-chan time.Time
		lingerT  *time.Timer
		expired  bool
		gatherC  <-chan time.Time
		gatherT  *time.Timer
		quiet    bool // no event for idleGather since the last one
		closed   bool
		seq      int
	)
	stopTimers := func() {
		if lingerT != nil { // the two are armed and stopped together
			lingerT.Stop()
			gatherT.Stop()
			lingerT, lingerC, gatherT, gatherC = nil, nil, nil, nil
		}
	}
	defer stopTimers()
	armTimers := func() {
		stopTimers()
		expired, quiet = false, false
		lingerT = time.NewTimer(b.opts.Linger)
		lingerC = lingerT.C
		gatherT = time.NewTimer(idleGather)
		gatherC = gatherT.C
	}

	// cut slices the head of pending into the next candidate batch,
	// honoring the byte caps — including the in-flight budget, so the
	// inFlight==0 escape below can only ever admit a single oversized
	// file, never a multi-file batch trimmable to fit — and the file cap
	// (always at least one file).
	byteCap := b.opts.MaxBatchBytes
	if b.opts.BudgetBytes > 0 && (byteCap <= 0 || b.opts.BudgetBytes < byteCap) {
		byteCap = b.opts.BudgetBytes
	}
	cut := func() Batch {
		n, sz := 0, int64(0)
		for n < len(pending) && n < b.opts.MaxBatchFiles {
			if n > 0 && byteCap > 0 && sz+pending[n].Size > byteCap {
				break
			}
			sz += pending[n].Size
			n++
		}
		return Batch{Seq: seq + 1, Files: pending[:n:n], Bytes: sz}
	}

	for {
		// A batch is ready when thresholds are met, the linger expired, the
		// source closed, or nothing is held and the stream has paused; it
		// is sendable when the budget allows. Idle is a count of batches,
		// not of bytes: a held batch of empty files is still a busy consumer.
		var outC chan Batch
		var next Batch
		if len(pending) > 0 {
			full := len(pending) >= b.opts.MaxBatchFiles ||
				(b.opts.MaxBatchBytes > 0 && bytes >= b.opts.MaxBatchBytes)
			if full || expired || closed || (held == 0 && quiet) {
				candidate := cut()
				if b.opts.BudgetBytes <= 0 || inFlight == 0 || inFlight+candidate.Bytes <= b.opts.BudgetBytes {
					next = candidate
					outC = b.out
				}
			}
		} else if closed {
			return
		}

		select {
		case ev, ok := <-events:
			if !ok {
				closed = true
				events = nil
				stopTimers()
				continue
			}
			pending = append(pending, ev)
			bytes += ev.Size
			armTimers()
		case <-lingerC:
			expired = true
			lingerC = nil
		case <-gatherC:
			quiet = true
			gatherC = nil
		case n := <-b.release:
			inFlight -= n
			held--
		case outC <- next:
			seq++
			pending = pending[len(next.Files):]
			bytes -= next.Bytes
			inFlight += next.Bytes
			held++
			if len(pending) == 0 {
				expired, quiet = false, false
				stopTimers()
			}
			b.mu.Lock()
			b.stats.Batches++
			b.stats.Files += len(next.Files)
			b.stats.Bytes += next.Bytes
			if inFlight > b.stats.MaxInFlightBytes {
				b.stats.MaxInFlightBytes = inFlight
			}
			b.mu.Unlock()
		case <-b.stop:
			return
		}
	}
}
