package sim

import (
	"sync"
	"time"
)

// LiveRuntime implements Runtime with real goroutines and real (optionally
// scaled) sleeps, so that process code written for the simulation kernel can
// run against the wall clock in live deployments and fast integration tests.
//
// Scale is the number of virtual seconds that elapse per real second: with
// Scale=60 a process sleeping one virtual minute sleeps one real second.
// Now returns the epoch — the wall clock at construction — plus the scaled
// elapsed real time, so durations computed from Context.Now are expressed
// in virtual time regardless of scale, and at scale 1 Now is the wall
// clock: run records stamped by a live engine and by its providers read on
// one clock, and a later boot never stamps earlier than the one before it.
type LiveRuntime struct {
	epoch time.Time
	start time.Time
	scale float64
	wg    sync.WaitGroup
}

// NewLiveRuntime returns a live runtime whose virtual clock starts at the
// current wall-clock time and advances scale times faster than real time.
// A scale of 1 is true real time; scale must be positive.
func NewLiveRuntime(scale float64) *LiveRuntime {
	if scale <= 0 {
		panic("sim: LiveRuntime scale must be positive")
	}
	now := time.Now()
	// Round(0) strips the monotonic reading: a scaled virtual time must not
	// carry one.
	return &LiveRuntime{epoch: now.Round(0), start: now, scale: scale}
}

// Now returns the current virtual time.
func (r *LiveRuntime) Now() time.Time {
	elapsed := time.Since(r.start)
	return r.epoch.Add(time.Duration(float64(elapsed) * r.scale))
}

// Spawn starts fn on a new goroutine. Use Wait to join all spawned
// processes.
func (r *LiveRuntime) Spawn(name string, fn func(Context)) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		fn(&liveCtx{r: r, name: name})
	}()
}

// AfterFunc schedules fn after d of virtual time on its own goroutine.
func (r *LiveRuntime) AfterFunc(d time.Duration, fn func()) {
	r.wg.Add(1)
	time.AfterFunc(r.real(d), func() {
		defer r.wg.Done()
		fn()
	})
}

// Wait blocks until every process started with Spawn (and every pending
// AfterFunc callback) has finished.
func (r *LiveRuntime) Wait() { r.wg.Wait() }

// real converts a virtual duration to the real duration to sleep.
func (r *LiveRuntime) real(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(float64(d) / r.scale)
}

type liveCtx struct {
	r    *LiveRuntime
	name string
}

func (c *liveCtx) Now() time.Time        { return c.r.Now() }
func (c *liveCtx) Sleep(d time.Duration) { time.Sleep(c.r.real(d)) }
func (c *liveCtx) Name() string          { return c.name }

var _ Runtime = (*LiveRuntime)(nil)
