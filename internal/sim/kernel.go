// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel drives a virtual clock over a time-ordered event queue.
// Simulation code is written either as plain event callbacks (Kernel.At,
// Kernel.After) or as cooperative processes (Kernel.Spawn) that may block on
// Sleep and on Futures. Exactly one process or event callback executes at a
// time and ties are broken by scheduling order, so runs are fully
// deterministic and shared simulation state needs no locking.
//
// The same process code can run against real time through LiveRuntime, which
// implements the Runtime/Context pair with goroutines and (optionally scaled)
// time.Sleep. Services in this repository are written against Runtime so the
// identical orchestration logic is exercised in both simulated experiments
// and live end-to-end runs.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"time"
)

// DefaultEpoch is the virtual wall-clock time at which a fresh Kernel starts.
// The specific date is arbitrary; experiments report durations, not dates.
var DefaultEpoch = time.Date(2023, 6, 1, 9, 0, 0, 0, time.UTC)

// Context is the execution context handed to a spawned process. It is the
// only interface through which process code should observe or consume time,
// so that the code runs unchanged under the simulation kernel and under
// LiveRuntime.
type Context interface {
	// Now returns the current (virtual or scaled real) time.
	Now() time.Time
	// Sleep suspends the process for the given duration of virtual time.
	Sleep(d time.Duration)
	// Name returns the process name given at Spawn time.
	Name() string
}

// Runtime abstracts the ambient scheduler: the simulation kernel in
// experiments, or real goroutines in live deployments.
type Runtime interface {
	// Now returns the current time.
	Now() time.Time
	// Spawn starts a new process running fn.
	Spawn(name string, fn func(Context))
	// AfterFunc schedules fn to run once after d has elapsed.
	AfterFunc(d time.Duration, fn func())
}

// event is a single scheduled callback.
type event struct {
	at  time.Time
	seq uint64 // tie-breaker: FIFO among events at the same instant
	fn  func()
}

// eventQueue is a min-heap ordered by (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// Kernel is a deterministic discrete-event simulation kernel. The zero value
// is not usable; construct with NewKernel.
type Kernel struct {
	now    time.Time
	seq    uint64
	queue  eventQueue
	parked chan struct{} // process -> kernel handoff
	procs  int           // live (spawned, not yet exited) processes
	panics []error
}

// NewKernel returns a kernel whose clock starts at DefaultEpoch.
func NewKernel() *Kernel {
	return &Kernel{now: DefaultEpoch, parked: make(chan struct{})}
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Time { return k.now }

// LiveProcs reports the number of spawned processes that have not exited.
// A nonzero value after Run returns means processes are blocked forever
// (for example on a Future that was never resolved).
func (k *Kernel) LiveProcs() int { return k.procs }

// Err returns the accumulated panics recovered from processes, or nil.
func (k *Kernel) Err() error { return errors.Join(k.panics...) }

// At schedules fn to run at virtual time t. Times in the past are clamped to
// the current instant; among simultaneous events, scheduling order is
// preserved.
func (k *Kernel) At(t time.Time, fn func()) {
	if t.Before(k.now) {
		t = k.now
	}
	k.seq++
	heap.Push(&k.queue, &event{at: t, seq: k.seq, fn: fn})
}

// After schedules fn to run d from now. Negative durations are clamped to 0.
func (k *Kernel) After(d time.Duration, fn func()) {
	k.At(k.now.Add(d), fn)
}

// AfterFunc implements Runtime.
func (k *Kernel) AfterFunc(d time.Duration, fn func()) { k.After(d, fn) }

// Run processes events until the queue is empty and returns the final
// virtual time.
func (k *Kernel) Run() time.Time {
	for k.queue.Len() > 0 {
		k.step()
	}
	return k.now
}

// RunUntil processes all events scheduled at or before t, then advances the
// clock to exactly t. Events scheduled beyond t remain queued.
func (k *Kernel) RunUntil(t time.Time) {
	for k.queue.Len() > 0 && !k.queue[0].at.After(t) {
		k.step()
	}
	if t.After(k.now) {
		k.now = t
	}
}

// RunFor processes events for d of virtual time from the current instant.
func (k *Kernel) RunFor(d time.Duration) { k.RunUntil(k.now.Add(d)) }

func (k *Kernel) step() {
	ev := heap.Pop(&k.queue).(*event)
	if ev.at.After(k.now) {
		k.now = ev.at
	}
	ev.fn()
}

// Proc is a cooperative process executing under a Kernel. It implements
// Context.
type Proc struct {
	k      *Kernel
	name   string
	resume chan struct{}
}

// Spawn starts fn as a cooperative process at the current instant.
// It implements Runtime.
func (k *Kernel) Spawn(name string, fn func(Context)) {
	k.After(0, func() {
		p := &Proc{k: k, name: name, resume: make(chan struct{})}
		k.procs++
		go func() {
			defer func() {
				if r := recover(); r != nil {
					k.panics = append(k.panics, fmt.Errorf("sim: proc %q panicked: %v", p.name, r))
				}
				k.procs--
				k.parked <- struct{}{}
			}()
			fn(p)
		}()
		<-k.parked // wait until the process parks or exits
	})
}

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() time.Time { return p.k.now }

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	k := p.k
	k.At(k.now.Add(d), func() { p.unpark() })
	p.park()
}

// park suspends the process, handing control back to the kernel. The caller
// must already have arranged for a future unpark.
func (p *Proc) park() {
	p.k.parked <- struct{}{}
	<-p.resume
}

// unpark resumes the process from kernel context and waits for it to park
// again or exit.
func (p *Proc) unpark() {
	p.resume <- struct{}{}
	<-p.k.parked
}

// Kernel returns the kernel this process runs under.
func (p *Proc) Kernel() *Kernel { return p.k }

// compile-time interface checks
var (
	_ Runtime = (*Kernel)(nil)
	_ Context = (*Proc)(nil)
)
