package lab

import (
	"fmt"
	"time"

	"picoprobe/internal/netsim"
	"picoprobe/internal/sim"
	"picoprobe/internal/transfer"
)

// Route is the network path and transfer framing used between two
// endpoints.
type Route struct {
	Path      []*netsim.Link
	StreamCap float64 // bits per second; 0 = uncapped
	// SetupTime models per-task fixed costs (endpoint activation, file
	// listing, GridFTP session establishment) counted as active transfer
	// time.
	SetupTime time.Duration
	// Streams is the concurrent-stream budget (GridFTP parallelism — the
	// paper's future-work item "optimization of cross-site transfer
	// settings"). 0 or 1 means a single stream.
	Streams int
	// ChunkBytes switches the task to chunked framing: the task's files
	// become one flat list of ChunkBytes-sized chunks pipelined through a
	// window of Streams concurrent capped flows, and completed chunks are
	// remembered so a retried task resumes instead of restarting. <= 0
	// keeps whole-file framing: each file is split into exactly Streams
	// equal ranges moved concurrently, files strictly in sequence (the
	// pre-chunking behavior, which Table 1 reproductions pin).
	ChunkBytes int64
	// Tuner, when set, derives Streams and ChunkBytes from measured path
	// quality instead of the fixed fields above, re-evaluated between
	// chunks. Nil keeps the fixed-flag behavior bit-identical.
	Tuner transfer.RouteTuner
}

// SimMover moves bytes over the netsim fluid-flow network under the
// simulation kernel, with the same two framings as the live engine:
// whole-file (each file as a single multi-stream burst, files in
// sequence) or chunked (a window of Streams concurrent chunk flows over
// the whole task, with chunk-level resume on retry).
type SimMover struct {
	Kernel  *sim.Kernel
	Network *netsim.Network
	// RouteFor returns the route between two endpoints.
	RouteFor func(src, dst *transfer.Endpoint) Route
	// FailNext makes the next n moves fail before moving anything (fault
	// injection for retry tests).
	FailNext int
	// FailAfterChunks is the chunk-level analog, one-shot like the live
	// mover's: the first attempt to complete this many chunk flows aborts,
	// leaving the completed chunks in the resume state. Only meaningful
	// with chunked framing.
	FailAfterChunks int

	failedOnce bool
	// progress is the in-memory resume state: task ID -> the chunk size
	// the task's plan was built with plus the set of completed chunk
	// ordinals. (The simulated facility keeps no filesystem, so the
	// manifest lives here.) Recording the chunk size pins the plan across
	// attempts, so an adaptively tuned task re-plans identically on retry
	// even if the tuner's answer has moved.
	progress map[string]*simProgress
}

// simProgress is one task's resume state.
type simProgress struct {
	chunkBytes int64
	done       map[int]bool
}

// ForgetTask drops a task's resume state once the service gives up on it
// permanently (implements the service's taskForgetter hook). Runs on the
// kernel like every other SimMover callback.
func (m *SimMover) ForgetTask(taskID string) {
	delete(m.progress, taskID)
}

// Move implements Mover.
func (m *SimMover) Move(task *transfer.Task, src, dst *transfer.Endpoint, done func(transfer.Report, error)) {
	if m.FailNext > 0 {
		m.FailNext--
		m.Kernel.After(100*time.Millisecond, func() {
			done(transfer.Report{}, fmt.Errorf("transfer: injected fault"))
		})
		return
	}
	route := m.RouteFor(src, dst)
	m.Kernel.After(route.SetupTime, func() {
		if route.Tuner != nil {
			// Seed the framing from the tuner; the chunk launch loop
			// re-reads the stream window as the transfer progresses.
			if s, cb := route.Tuner.Tune(); s > 0 || cb > 0 {
				if s > 0 {
					route.Streams = s
				}
				if cb > 0 {
					route.ChunkBytes = cb
				}
			}
		}
		if route.ChunkBytes > 0 {
			m.moveChunked(task, route, done)
			return
		}
		m.moveFile(task, route, 0, transfer.Report{}, done)
	})
}

// moveFile is the whole-file framing: file idx is split across the
// route's streams, all parts move concurrently, and the next file starts
// only when every part of this one has drained — a single sequential
// GridFTP session.
func (m *SimMover) moveFile(task *transfer.Task, route Route, idx int, rep transfer.Report, done func(transfer.Report, error)) {
	if idx >= len(task.Files) {
		sums := map[string]string{}
		for _, f := range task.Files {
			sums[f.RelPath] = "sim"
		}
		rep.Checksums = sums
		rep.ChunksTotal = len(task.Files)
		rep.ChunksMoved = len(task.Files)
		done(rep, nil)
		return
	}
	f := task.Files[idx]
	streams := route.Streams
	if streams < 1 {
		streams = 1
	}
	remaining := streams
	var firstErr error
	finish := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		remaining--
		if remaining > 0 {
			return
		}
		if firstErr != nil {
			done(rep, firstErr)
			return
		}
		rep.BytesMoved += f.Bytes
		rep.BytesCopied += f.Bytes
		m.moveFile(task, route, idx+1, rep, done)
	}
	per := f.Bytes / int64(streams)
	for s := 0; s < streams; s++ {
		bytes := per
		if s == streams-1 {
			bytes = f.Bytes - per*int64(streams-1) // remainder on the last stream
		}
		tr := m.Network.Start(fmt.Sprintf("%s/%s#%d", task.ID, f.RelPath, s), route.Path, bytes, route.StreamCap)
		tr.Done.OnDone(func(res netsim.Result, err error) { finish(err) })
	}
}

// moveChunked is the chunked framing: the task's files become one flat
// chunk list, a window of Streams chunk flows is kept in flight, and each
// completed chunk is recorded in the in-memory resume state so a retried
// task re-moves only what is missing. All callbacks run on the kernel, so
// no locking is needed.
func (m *SimMover) moveChunked(task *transfer.Task, route Route, done func(transfer.Report, error)) {
	if m.progress == nil {
		m.progress = map[string]*simProgress{}
	}
	prog := m.progress[task.ID]
	if prog == nil {
		prog = &simProgress{chunkBytes: route.ChunkBytes, done: map[int]bool{}}
		m.progress[task.ID] = prog
	} else {
		// Resume: the recorded chunk plan wins over any freshly tuned
		// size, so completed ordinals keep meaning the same byte ranges.
		route.ChunkBytes = prog.chunkBytes
	}

	// Flat chunk list across the task's files.
	type simChunk struct {
		ord   int
		rel   string
		bytes int64
	}
	var chunks []simChunk
	ord := 0
	var total int64
	for _, f := range task.Files {
		total += f.Bytes
		for _, n := range transfer.PlanFile(f.Bytes, route.ChunkBytes) {
			chunks = append(chunks, simChunk{ord: ord, rel: f.RelPath, bytes: n})
			ord++
		}
	}

	rep := transfer.Report{ChunksTotal: len(chunks)}
	var todo []simChunk
	for _, c := range chunks {
		if prog.done[c.ord] {
			rep.ChunksSkipped++
			continue
		}
		todo = append(todo, c)
	}

	// window is the in-flight stream budget, re-read from the tuner
	// before every chunk launch so the transfer tracks the path — more
	// streams as a squall clears, fewer as one builds.
	window := func() int {
		s := route.Streams
		if route.Tuner != nil {
			if ts, _ := route.Tuner.Tune(); ts > 0 {
				s = ts
			}
		}
		if s < 1 {
			s = 1
		}
		return s
	}
	next := 0
	inFlight := 0
	finished := false
	var pendingErr error
	var copied int64
	moved := 0

	// complete reports the attempt exactly once, with counters that
	// include every chunk that actually crossed the wire.
	complete := func(err error) {
		if finished {
			return
		}
		finished = true
		rep.ChunksMoved = moved
		rep.BytesCopied = copied
		if err != nil {
			done(rep, err)
			return
		}
		rep.BytesMoved = total
		sums := map[string]string{}
		for _, f := range task.Files {
			sums[f.RelPath] = "sim"
		}
		rep.Checksums = sums
		delete(m.progress, task.ID)
		done(rep, nil)
	}
	// fail aborts the attempt but drains in-flight chunks first — they
	// land, count toward the report's wire traffic, and enter the resume
	// state, so the task view's ChunksMoved/BytesCopied stay exact even
	// with several streams in flight at the instant of failure.
	fail := func(err error) {
		if pendingErr == nil {
			pendingErr = err
		}
		if inFlight == 0 {
			complete(pendingErr)
		}
	}

	var launch func()
	launch = func() {
		for !finished && pendingErr == nil && next < len(todo) && inFlight < window() {
			c := todo[next]
			next++
			inFlight++
			tr := m.Network.Start(fmt.Sprintf("%s/%s/c%d", task.ID, c.rel, c.ord), route.Path, c.bytes, route.StreamCap)
			tr.Done.OnDone(func(res netsim.Result, err error) {
				inFlight--
				if err != nil {
					fail(err)
					return
				}
				// The chunk landed: record it for resume and the report
				// even if this attempt is already aborting.
				prog.done[c.ord] = true
				moved++
				copied += c.bytes
				if m.FailAfterChunks > 0 && !m.failedOnce && moved >= m.FailAfterChunks {
					m.failedOnce = true
					fail(fmt.Errorf("transfer: killed after %d chunks (injected fault)", moved))
					return
				}
				if pendingErr != nil {
					fail(pendingErr)
					return
				}
				if finished {
					return
				}
				if next >= len(todo) && inFlight == 0 {
					complete(nil)
					return
				}
				launch()
			})
		}
		if !finished && pendingErr == nil && len(todo) == 0 {
			complete(nil)
		}
	}
	launch()
}
