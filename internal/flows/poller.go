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
}

// poller is the engine's completion detector: a single deadline queue
// over every active action of every run. One timer is outstanding for the
// earliest deadline and each firing sweeps all actions due at that
// instant.
//
// All fields are guarded by the owning engine's mutex. Status round
// trips run outside the lock; a stateRun is owned either by the queue or
// by exactly one in-flight callback, with handoffs under the lock.
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

// add (re)queues a state for polling at the given deadline.
func (p *poller) add(s *stateRun, at time.Time) {
	e := p.e
	s.at = at
	e.mu.Lock()
	if s.x.finished {
		e.mu.Unlock()
		return
	}
	p.seq++
	s.seq = p.seq
	heap.Push(&p.queue, s)
	p.ensureTimerLocked(e.rt.Now())
	e.mu.Unlock()
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
func (q pollQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *pollQueue) Push(x any)   { *q = append(*q, x.(*stateRun)) }
func (q *pollQueue) Pop() any {
	old := *q
	n := len(old)
	s := old[n-1]
	old[n-1] = nil
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
