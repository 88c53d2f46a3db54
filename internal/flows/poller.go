package flows

import (
	"container/heap"
	"time"
)

// PollStats is the engine's completion-detection effort accounting. The
// paper's Fig 4 overhead is detection *lag*; these counters expose the
// detection *cost* side — how many timer wake-ups and service round trips
// the engine spends finding completions. Batched sweeps keep Wakeups
// near the number of distinct poll instants instead of the number of
// active actions, which is what lets one engine service thousands of
// concurrent runs.
type PollStats struct {
	// Wakeups counts completion-detection timer firings.
	Wakeups int64
	// Sweeps counts wake-ups that serviced at least one due action.
	Sweeps int64
	// StatusCalls counts provider status round trips (one per poll of one
	// action).
	StatusCalls int64
	// Signals counts completion signals (see Watcher) that queued a sweep.
	Signals int64
}

// poller is the engine's completion detector: a single deadline queue
// over every active action of every run. One timer is outstanding for the
// earliest deadline and each firing sweeps all actions due at that
// instant.
//
// A watched action (see Watcher) is queued only for its attempt timeout,
// or not at all; its completion signal moves its deadline to now, so the
// ordinary sweep reads the status at once.
//
// All fields are guarded by the owning engine's mutex. Status round
// trips run outside the lock; a stateRun is owned either by the queue, by
// exactly one in-flight callback (busy), or — watched and without a
// timeout — by nobody until its signal arrives, with handoffs under the
// lock.
type poller struct {
	e     *Engine
	queue pollQueue
	seq   uint64
	// wakes tracks outstanding timer targets so a new earliest deadline
	// schedules a timer only when no timer already fires early enough
	// (AfterFunc timers cannot be cancelled; stale ones fire as empty
	// wake-ups).
	wakes timeMinHeap
	stats PollStats
}

// add hands a busy state back to the poller: it is queued for the given
// deadline, or at once if a signal arrived while it was busy, or parked
// until its signal when the deadline is zero.
func (p *poller) add(s *stateRun, at time.Time) {
	e := p.e
	e.mu.Lock()
	defer e.mu.Unlock()
	s.busy = false
	if s.x.finished {
		return
	}
	now := e.rt.Now()
	if s.signalled {
		s.signalled = false
		p.stats.Signals++
		at = now
	}
	if at.IsZero() {
		return
	}
	s.at = at
	p.seq++
	s.seq = p.seq
	heap.Push(&p.queue, s)
	p.ensureTimerLocked(now)
}

// signal is a watched action's completion signal: the state's deadline
// moves to now. A busy state remembers it for add; a signal for a run
// that has already ended is dropped.
func (p *poller) signal(s *stateRun) {
	e := p.e
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case s.x.finished:
		return
	case s.busy:
		s.signalled = true
		return
	}
	now := e.rt.Now()
	p.stats.Signals++
	s.at = now
	if s.idx >= 0 {
		heap.Fix(&p.queue, s.idx) // queued for its timeout
	} else {
		p.seq++
		s.seq = p.seq
		heap.Push(&p.queue, s)
	}
	p.ensureTimerLocked(now)
}

// ensureTimerLocked guarantees a timer will fire at or before the
// earliest queued deadline.
func (p *poller) ensureTimerLocked(now time.Time) {
	if p.queue.Len() == 0 {
		return
	}
	earliest := p.queue[0].at
	if p.wakes.Len() > 0 && !p.wakes.min().After(earliest) {
		return
	}
	heap.Push(&p.wakes, earliest)
	p.e.rt.AfterFunc(earliest.Sub(now), func() { p.sweep(earliest) })
}

// sweep services every queued action whose deadline has arrived — the
// batched tick: N due actions cost one wake-up and N status calls.
func (p *poller) sweep(target time.Time) {
	e := p.e
	e.mu.Lock()
	p.wakes.remove(target)
	p.stats.Wakeups++
	now := e.rt.Now()
	var due []*stateRun
	for p.queue.Len() > 0 && !p.queue[0].at.After(now) {
		s := heap.Pop(&p.queue).(*stateRun)
		if s.x.finished {
			continue // run failed while this sibling was queued
		}
		s.busy = true
		due = append(due, s)
	}
	if len(due) > 0 {
		p.stats.Sweeps++
		p.stats.StatusCalls += int64(len(due))
	}
	e.mu.Unlock()

	for _, s := range due {
		status, err := e.provider(s.sd.Provider).Status(s.x.token, s.sr.ActionID)
		s.sr.Polls++
		s.handleStatus(status, err)
	}

	e.mu.Lock()
	p.ensureTimerLocked(e.rt.Now())
	e.mu.Unlock()
}

// pollQueue is a min-heap of queued states ordered by (deadline, seq) so
// sweeps service same-instant actions in scheduling order.
type pollQueue []*stateRun

func (q pollQueue) Len() int { return len(q) }
func (q pollQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q pollQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx, q[j].idx = i, j
}
func (q *pollQueue) Push(x any) {
	s := x.(*stateRun)
	s.idx = len(*q)
	*q = append(*q, s)
}
func (q *pollQueue) Pop() any {
	old := *q
	n := len(old)
	s := old[n-1]
	old[n-1] = nil
	s.idx = -1
	*q = old[:n-1]
	return s
}

// timeMinHeap tracks outstanding wake-up targets.
type timeMinHeap []time.Time

func (h timeMinHeap) Len() int           { return len(h) }
func (h timeMinHeap) Less(i, j int) bool { return h[i].Before(h[j]) }
func (h timeMinHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *timeMinHeap) Push(x any)        { *h = append(*h, x.(time.Time)) }
func (h *timeMinHeap) Pop() any          { old := *h; n := len(old); t := old[n-1]; *h = old[:n-1]; return t }
func (h timeMinHeap) min() time.Time     { return h[0] }
func (h *timeMinHeap) remove(t time.Time) {
	for i, v := range *h {
		if v.Equal(t) {
			heap.Remove(h, i)
			return
		}
	}
}
