package flows

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"picoprobe/internal/sim"
)

// signallingProvider is a Watcher: the n-th invocation's action ends
// durations[n] after it (the last entry repeats) and signals its watchers
// then.
type signallingProvider struct {
	mu        sync.Mutex
	name      string
	rt        sim.Runtime
	durations []time.Duration
	fail      bool // actions end FAILED
	refuse    bool // Watch answers false
	actions   map[string]*ActionStatus
	watchers  map[string][]func()
	nextID    int
	watches   int
	statuses  int
	// endDuringStatus ends an active action inside its next status call,
	// which answers what it read before.
	endDuringStatus bool
}

func newSignalling(name string, rt sim.Runtime, durations ...time.Duration) *signallingProvider {
	return &signallingProvider{name: name, rt: rt, durations: durations,
		actions: map[string]*ActionStatus{}, watchers: map[string][]func(){}}
}

func (p *signallingProvider) Name() string { return p.name }

func (p *signallingProvider) Invoke(token string, params map[string]any) (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d := p.durations[min(p.nextID, len(p.durations)-1)]
	p.nextID++
	id := fmt.Sprintf("%s-%d", p.name, p.nextID)
	p.actions[id] = &ActionStatus{State: StateActive, Started: p.rt.Now()}
	if d == 0 {
		p.completeLocked(id) // terminal before the engine can watch it
	} else {
		p.rt.AfterFunc(d, func() { p.complete(id) })
	}
	return id, nil
}

func (p *signallingProvider) completeLocked(id string) []func() {
	a := p.actions[id]
	a.State, a.Completed = StateSucceeded, p.rt.Now()
	if p.fail {
		a.State, a.Error = StateFailed, "action exploded"
	}
	w := p.watchers[id]
	delete(p.watchers, id)
	return w
}

// complete ends an action and signals its watchers outside the lock.
func (p *signallingProvider) complete(id string) {
	p.mu.Lock()
	w := p.completeLocked(id)
	p.mu.Unlock()
	for _, done := range w {
		done()
	}
}

func (p *signallingProvider) Watch(actionID string, done func()) bool {
	p.mu.Lock()
	if p.refuse {
		p.mu.Unlock()
		return false
	}
	p.watches++
	if a := p.actions[actionID]; a.State == StateActive {
		p.watchers[actionID] = append(p.watchers[actionID], done)
		p.mu.Unlock()
		return true
	}
	p.mu.Unlock()
	done()
	return true
}

func (p *signallingProvider) Status(token, actionID string) (ActionStatus, error) {
	p.mu.Lock()
	p.statuses++
	st := *p.actions[actionID]
	endNow := p.endDuringStatus && st.State == StateActive
	p.endDuringStatus = p.endDuringStatus && !endNow
	p.mu.Unlock()
	if endNow {
		p.complete(actionID)
	}
	return st, nil
}

func signallingEngine(k *sim.Kernel, pol Policy) (*Engine, []*signallingProvider) {
	e := NewEngine(k, Options{Policy: pol, StateOverhead: 4 * time.Second})
	ps := []*signallingProvider{
		newSignalling("transfer", k, 9*time.Second),
		newSignalling("compute", k, 6*time.Second),
		newSignalling("search", k, 500*time.Millisecond),
	}
	for _, p := range ps {
		e.RegisterProvider(p)
	}
	return e, ps
}

func runToEnd(t *testing.T, k *sim.Kernel, e *Engine, def Definition) RunRecord {
	t.Helper()
	var final RunRecord
	if _, err := e.Run("tok", def, nil, func(r RunRecord) { final = r }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if err := k.Err(); err != nil {
		t.Fatal(err)
	}
	return final
}

// TestSignalDetectsAtCompletion: under Push every signalled state is read
// the instant its action ends, with one status call and one wake-up each.
func TestSignalDetectsAtCompletion(t *testing.T) {
	k := sim.NewKernel()
	e, _ := signallingEngine(k, Push{Latency: 100 * time.Millisecond})
	final := runToEnd(t, k, e, threeStateDef())
	if final.Status != StateSucceeded || len(final.States) != 3 {
		t.Fatalf("record = %+v", final)
	}
	for _, st := range final.States {
		if !st.DetectedAt.Equal(st.Completed) || st.Polls != 1 {
			t.Errorf("%s: detected %v after completion, %d polls; want 0, 1",
				st.Name, st.DetectedAt.Sub(st.Completed), st.Polls)
		}
	}
	// 3 × 4 s state overhead + 9 + 6 + 0.5 s of work, and nothing else.
	if got := final.Runtime(); got != 27500*time.Millisecond {
		t.Errorf("runtime = %v, want 27.5s", got)
	}
	if st := e.PollStats(); st.Wakeups != 3 || st.StatusCalls != 3 || st.Signals != 3 {
		t.Errorf("poll stats = %+v, want 3 wakeups, 3 status calls, 3 signals", st)
	}
}

// TestSignalIgnoredByExponential: the paper's policy does not subscribe,
// so a provider that could signal reproduces TestRunHappyPathTiming.
func TestSignalIgnoredByExponential(t *testing.T) {
	k := sim.NewKernel()
	e, ps := signallingEngine(k, Exponential{Initial: time.Second, Factor: 2, Cap: 10 * time.Minute})
	final := runToEnd(t, k, e, threeStateDef())
	if final.Status != StateSucceeded || len(final.States) != 3 {
		t.Fatalf("record = %+v", final)
	}
	if got := final.States[0].DetectedAt.Sub(final.States[0].EnteredAt); got != 19*time.Second {
		t.Errorf("transfer state wall = %v, want 19s", got)
	}
	if got := final.Runtime(); got != 35*time.Second {
		t.Errorf("runtime = %v, want 35s", got)
	}
	for i, want := range []int{4, 3, 1} {
		if got := final.States[i].Polls; got != want {
			t.Errorf("%s polls = %d, want %d", final.States[i].Name, got, want)
		}
	}
	for _, p := range ps {
		if p.watches != 0 {
			t.Errorf("%s watched %d times under exponential", p.name, p.watches)
		}
	}
	if st := e.PollStats(); st.Signals != 0 {
		t.Errorf("signals = %d, want 0", st.Signals)
	}
}

// TestWatchRefusedIsPolled: a provider whose Watch answers false is
// polled at the Push latency, as before signals existed.
func TestWatchRefusedIsPolled(t *testing.T) {
	k := sim.NewKernel()
	e := NewEngine(k, Options{Policy: Push{Latency: 100 * time.Millisecond}})
	p := newSignalling("transfer", k, 950*time.Millisecond)
	p.refuse = true
	e.RegisterProvider(p)
	def := Definition{Name: "one", States: []StateDef{{Name: "Transfer", Provider: "transfer"}}}
	final := runToEnd(t, k, e, def)
	st := final.States[0]
	if final.Status != StateSucceeded || st.Polls != 10 || st.DetectedAt.Sub(st.InvokedAt) != time.Second {
		t.Errorf("state = %+v, want 10 polls, detected 1s after invoke", st)
	}
	if s := e.PollStats(); s.Signals != 0 {
		t.Errorf("signals = %d, want 0", s.Signals)
	}
}

// TestWatchAlreadyTerminal: an action that has ended before Watch is
// signalled synchronously inside it, and the signal is not lost.
func TestWatchAlreadyTerminal(t *testing.T) {
	k := sim.NewKernel()
	e := NewEngine(k, Options{Policy: Push{Latency: time.Hour}})
	e.RegisterProvider(newSignalling("transfer", k, 0))
	def := Definition{Name: "one", States: []StateDef{{Name: "Transfer", Provider: "transfer"}}}
	final := runToEnd(t, k, e, def)
	if final.Status != StateSucceeded {
		t.Fatalf("status = %s (%s)", final.Status, final.Error)
	}
	if st := final.States[0]; st.Polls != 1 || !st.DetectedAt.Equal(st.InvokedAt) {
		t.Errorf("state = %+v, want 1 poll at invocation", st)
	}
	if s := e.PollStats(); s.Signals != 1 {
		t.Errorf("signals = %d, want 1", s.Signals)
	}
}

// TestSignalDuringStatusCall: a signal that arrives while the action's
// status call is in flight, whose answer is therefore stale (ACTIVE), is
// remembered and read at once — not stranded with no deadline.
func TestSignalDuringStatusCall(t *testing.T) {
	k := sim.NewKernel()
	e := NewEngine(k, Options{Policy: Push{Latency: time.Hour}})
	p := newSignalling("transfer", k, time.Hour)
	p.endDuringStatus = true
	e.RegisterProvider(p)
	k.AfterFunc(time.Second, func() {
		// A stale signal (as from an earlier attempt) starts a status call
		// for the still-active action.
		p.mu.Lock()
		w := p.watchers["transfer-1"]
		p.mu.Unlock()
		w[0]()
	})
	def := Definition{Name: "one", States: []StateDef{{Name: "Transfer", Provider: "transfer"}}}
	final := runToEnd(t, k, e, def)
	if final.Status != StateSucceeded {
		t.Fatalf("status = %s (%s)", final.Status, final.Error)
	}
	if st := final.States[0]; st.Polls != 2 || st.DetectedAt.Sub(st.InvokedAt) != time.Second {
		t.Errorf("state = %+v, want 2 polls, detected 1s after invoke", st)
	}
}

// TestEarlySignalReturnsToPolling: a watcher that fires before its action
// ends (as a remote watcher does on a transport error) and never again
// leaves the action read ACTIVE; it is then polled at the Push latency
// and completes, instead of waiting forever for a signal with no
// deadline behind it.
func TestEarlySignalReturnsToPolling(t *testing.T) {
	k := sim.NewKernel()
	e := NewEngine(k, Options{Policy: Push{Latency: 100 * time.Millisecond}})
	p := newSignalling("transfer", k, 950*time.Millisecond)
	e.RegisterProvider(p)
	k.AfterFunc(300*time.Millisecond, func() {
		p.mu.Lock()
		w := p.watchers["transfer-1"]
		delete(p.watchers, "transfer-1")
		p.mu.Unlock()
		w[0]()
	})
	def := Definition{Name: "one", States: []StateDef{{Name: "Transfer", Provider: "transfer"}}}
	final := runToEnd(t, k, e, def)
	if final.Status != StateSucceeded {
		t.Fatalf("status = %q (%s): the early-signalled action was stranded", final.Status, final.Error)
	}
	// Read ACTIVE at 0.3 s, then polled every 100 ms: 0.4 … 1.0 s.
	if st := final.States[0]; st.Polls != 8 || st.DetectedAt.Sub(st.InvokedAt) != time.Second {
		t.Errorf("state = %+v, want 8 polls, detected 1s after invoke", st)
	}
	if s := e.PollStats(); s.Signals != 1 {
		t.Errorf("signals = %d, want 1", s.Signals)
	}
}

// TestSignalWithTimeoutRetries: a watched attempt still fails at its
// timeout and is retried; the retry's signal moves its queued timeout
// deadline ahead of a polled sibling's, and the first attempt's late
// signal is ignored.
func TestSignalWithTimeoutRetries(t *testing.T) {
	k := sim.NewKernel()
	e := NewEngine(k, Options{Policy: Push{Latency: 400 * time.Millisecond}})
	p := newSignalling("transfer", k, 10*time.Second, time.Second)
	polled := newSignalling("polled", k, 4200*time.Millisecond)
	polled.refuse = true
	e.RegisterProvider(p)
	e.RegisterProvider(polled)
	def := Definition{Name: "two", States: []StateDef{
		{Name: "Transfer", Provider: "transfer", Timeout: 2 * time.Second, Retries: 1},
		{Name: "Polled", Provider: "polled"},
	}}
	final := runToEnd(t, k, e, def)
	if final.Status != StateSucceeded || len(final.States) != 2 {
		t.Fatalf("record = %+v", final)
	}
	// The retry is queued for its 4 s timeout behind the sibling's 3.2 s
	// poll; its signal at 3 s must be read at 3 s.
	st := final.States[0]
	if st.Name != "Transfer" || st.Attempts != 2 || st.Polls != 2 || st.DetectedAt.Sub(st.EnteredAt) != 3*time.Second {
		t.Errorf("state = %+v, want Transfer: 2 attempts, 2 polls, detected at 3s", st)
	}
	if got := p.statuses; got != 2 {
		t.Errorf("status calls = %d, want 2", got)
	}
}

// TestSignalAfterRunFailedIsNoop: a failed run abandons its parked
// sibling, whose later signal costs no status call and adds no record.
func TestSignalAfterRunFailedIsNoop(t *testing.T) {
	k := sim.NewKernel()
	e := NewEngine(k, Options{Policy: Push{Latency: time.Hour}})
	bad := newSignalling("bad", k, time.Second)
	bad.fail = true
	slow := newSignalling("slow", k, 5*time.Second)
	e.RegisterProvider(bad)
	e.RegisterProvider(slow)
	def := Definition{Name: "fan", States: []StateDef{
		{Name: "A", Provider: "bad", Retries: NoRetries},
		{Name: "B", Provider: "slow", Retries: NoRetries},
	}}
	final := runToEnd(t, k, e, def)
	if final.Status != StateFailed || len(final.States) != 1 || final.States[0].Name != "A" {
		t.Fatalf("record = %+v", final)
	}
	if slow.statuses != 0 {
		t.Errorf("abandoned sibling polled %d times", slow.statuses)
	}
	if st := e.PollStats(); st.StatusCalls != 1 || st.Signals != 1 {
		t.Errorf("poll stats = %+v, want 1 status call, 1 signal", st)
	}
	if rec, _ := e.Record(final.RunID); len(rec.States) != 1 {
		t.Errorf("record grew after the run ended: %+v", rec.States)
	}
}

// TestSignalLiveRuntimeLosesNothing: on the live runtime, actions that
// end on other goroutines — before Watch, racing it, or after — all
// complete, though nothing but their signals would ever poll them.
func TestSignalLiveRuntimeLosesNothing(t *testing.T) {
	const runs = 100
	rt := sim.NewLiveRuntime(1)
	e := NewEngine(rt, Options{Policy: Push{Latency: time.Hour}})
	e.RegisterProvider(newSignalling("transfer", rt, time.Microsecond))
	e.RegisterProvider(newSignalling("compute", rt, 0))
	e.RegisterProvider(newSignalling("search", rt, 20*time.Microsecond))
	done := make(chan RunRecord, runs)
	for i := 0; i < runs; i++ {
		if _, err := e.Run("tok", threeStateDef(), nil, func(r RunRecord) { done <- r }); err != nil {
			t.Fatal(err)
		}
	}
	timeout := time.After(10 * time.Second)
	for i := 0; i < runs; i++ {
		select {
		case r := <-done:
			if r.Status != StateSucceeded {
				t.Fatalf("%s: %s (%s)", r.RunID, r.Status, r.Error)
			}
		case <-timeout:
			t.Fatalf("%d of %d runs stranded: a signal was lost", runs-i, runs)
		}
	}
	if st := e.PollStats(); st.Signals != 3*runs {
		t.Errorf("signals = %d, want %d", st.Signals, 3*runs)
	}
}
