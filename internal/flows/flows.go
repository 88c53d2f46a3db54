// Package flows is the research-process-automation engine standing in for
// Globus Flows / Gladier. A flow definition is a typed DAG of action
// states: each state names the action provider it drives (Transfer,
// Compute, Search-ingest in this repository) and the states it runs
// After; states whose dependencies are met execute concurrently, and a
// state with several dependencies fans their results back in. A
// definition means what it declares: states that declare no dependencies
// are roots and run at once; Definition.Linear builds the straight-line
// paper flows.
//
// The completion-detection client is deliberately faithful to the paper's
// deployment: providers are polled with a configurable backoff policy
// (default: the exponential 1 s doubling to 10 min the paper measures)
// and per-state timings are recorded exactly the way the paper's Fig 4
// decomposes them — service-side "active" time per step versus
// flow-orchestration overhead (state-transition costs plus
// completion-detection lag). Policies, timeouts and retry budgets can be
// overridden per state. Detection itself is batched: the engine keeps one
// deadline queue across all runs and one sweep services every action that
// is due at a tick, instead of dedicating a timer to every run. Under the
// Push policy a provider that knows when its action ends (a Watcher)
// signals it, and the signal moves the action's deadline to now: the same
// sweep reads the status at once, and providers that cannot signal are
// polled at the policy's latency. The backoff policies ignore signals.
//
// Engines run identically under the simulation kernel and the live
// runtime; all execution is event-driven through sim.Runtime.AfterFunc,
// so the engine never blocks a goroutine per run.
package flows

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"picoprobe/internal/sim"
)

// State is an action or flow lifecycle state.
type State string

// Lifecycle states.
const (
	StateActive    State = "ACTIVE"
	StateSucceeded State = "SUCCEEDED"
	StateFailed    State = "FAILED"
)

// Results maps completed state names to their action results.
type Results = map[string]map[string]any

// ActionStatus is a provider's report on one action.
type ActionStatus struct {
	State  State
	Result map[string]any
	Error  string
	// Started/Completed are the provider-side timestamps bounding actual
	// processing; the engine uses them for the active-vs-overhead
	// decomposition.
	Started   time.Time
	Completed time.Time
}

// ActionProvider is one service the engine can drive (transfer, compute,
// search ingest). Invoke must return quickly with an action ID; Status
// must be cheap and non-blocking — the engine does the waiting. See
// TypedProvider for the strongly typed adapter.
type ActionProvider interface {
	Name() string
	Invoke(token string, params map[string]any) (string, error)
	Status(token, actionID string) (ActionStatus, error)
}

// Watcher is an optional ActionProvider extension for providers that know
// when an action ends. Watch returns false when it cannot signal that
// action (the engine then polls it). Otherwise it calls done exactly
// once, after the terminal status is readable through Status — at once,
// possibly before Watch returns, if the action is already terminal. The
// engine subscribes only under the Push policy.
type Watcher interface {
	Watch(actionID string, done func()) bool
}

// NoRetries disables retries for a state (StateDef.Retries); the zero
// value inherits the engine's Options.MaxStateRetries.
const NoRetries = -1

// StateDef is one node of a flow definition.
type StateDef struct {
	// Name labels the step ("Transfer", "Analysis", "Publication").
	Name string
	// Provider names the registered ActionProvider to drive.
	Provider string
	// After lists the states that must complete before this one starts.
	// States with no unmet dependencies run concurrently.
	After []string
	// Params builds the action parameters from the flow input and the
	// results of completed states (keyed by state name). It is called once
	// per state entry, after every dependency has completed, and must not
	// mutate its arguments. Use Pack to build the map from a typed struct.
	Params func(input map[string]any, results Results) map[string]any
	// Facility optionally constrains where this state's action executes:
	// when set, the engine adds it to the built params under the
	// "facility" key, overriding whatever Params produced there.
	// Facility-aware providers (the federation layer) honor the
	// constraint; others ignore the key. Empty inherits the run's
	// placement.
	Facility string
	// Policy overrides the engine's completion-polling backoff for this
	// state (nil inherits Options.Policy).
	Policy Policy
	// Timeout bounds one invocation attempt, measured from invocation to
	// completion detection; an attempt still active at the deadline is
	// failed (and retried if budget remains). Zero means no timeout.
	Timeout time.Duration
	// Retries overrides Options.MaxStateRetries for this state: positive
	// values are extra invocation attempts, NoRetries disables retries,
	// and zero inherits the engine default.
	Retries int
}

// Definition is a flow: a named DAG of action states.
type Definition struct {
	Name   string
	States []StateDef
}

// Linear returns a copy of d in which each state depends on its
// predecessor — the ordered list — regardless of any After declarations.
func (d Definition) Linear() Definition {
	out := d
	out.States = append([]StateDef(nil), d.States...)
	for i := range out.States {
		if i == 0 {
			out.States[i].After = nil
			continue
		}
		out.States[i].After = []string{out.States[i-1].Name}
	}
	return out
}

// Validate checks structural sanity of the definition: named, non-empty,
// unique state names, dependencies that exist, and no dependency cycles.
func (d Definition) Validate() error {
	if d.Name == "" {
		return errors.New("flows: definition missing name")
	}
	if len(d.States) == 0 {
		return errors.New("flows: definition has no states")
	}
	index := make(map[string]int, len(d.States))
	for i, s := range d.States {
		switch {
		case s.Name == "":
			return errors.New("flows: state missing name")
		case s.Provider == "":
			return fmt.Errorf("flows: state %q missing provider", s.Name)
		}
		if _, dup := index[s.Name]; dup {
			return fmt.Errorf("flows: duplicate state %q", s.Name)
		}
		index[s.Name] = i
	}
	indeg := make([]int, len(d.States))
	dependents := make([][]int, len(d.States))
	for i, s := range d.States {
		for _, dep := range s.After {
			j, ok := index[dep]
			if !ok {
				return fmt.Errorf("flows: state %q depends on unknown state %q", s.Name, dep)
			}
			if j == i {
				return fmt.Errorf("flows: state %q depends on itself", s.Name)
			}
			indeg[i]++
			dependents[j] = append(dependents[j], i)
		}
	}
	// Kahn's algorithm: every state must be reachable from the roots.
	queue := make([]int, 0, len(d.States))
	for i, n := range indeg {
		if n == 0 {
			queue = append(queue, i)
		}
	}
	seen := 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		seen++
		for _, j := range dependents[i] {
			if indeg[j]--; indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	if seen != len(d.States) {
		return fmt.Errorf("flows: definition %q has a dependency cycle", d.Name)
	}
	return nil
}

// StateRecord is the engine's timing account of one executed state.
type StateRecord struct {
	Name     string
	Provider string
	ActionID string
	// After lists the state's dependencies as executed.
	After []string
	// EnteredAt is when the engine began the state (before orchestration
	// overhead).
	EnteredAt time.Time
	// InvokedAt is when the action invocation returned.
	InvokedAt time.Time
	// Started/Completed are the provider-side active window.
	Started   time.Time
	Completed time.Time
	// DetectedAt is when a status call observed the terminal status.
	DetectedAt time.Time
	// Polls counts status calls; Attempts counts invocations (1 + retries).
	Polls    int
	Attempts int
	Error    string
}

// Active returns the provider-side processing time.
func (r StateRecord) Active() time.Duration { return r.Completed.Sub(r.Started) }

// Overhead returns the state's orchestration overhead: wall time in the
// state minus provider-side active time.
func (r StateRecord) Overhead() time.Duration {
	total := r.DetectedAt.Sub(r.EnteredAt)
	if o := total - r.Active(); o > 0 {
		return o
	}
	return 0
}

// RunRecord is the full account of one flow run. States appear in
// completion order (for concurrent states, detection order).
type RunRecord struct {
	RunID     string
	Flow      string
	Input     map[string]any
	StartedAt time.Time
	EndedAt   time.Time
	States    []StateRecord
	Status    State
	Error     string
}

// Runtime returns the end-to-end wall time of the run.
func (r RunRecord) Runtime() time.Duration { return r.EndedAt.Sub(r.StartedAt) }

// TotalActive sums provider-side active time across states. Concurrent
// states each contribute their full active window, so TotalActive can
// exceed Runtime for fan-out flows.
func (r RunRecord) TotalActive() time.Duration {
	var t time.Duration
	for _, s := range r.States {
		t += s.Active()
	}
	return t
}

// TotalOverhead returns run time not spent actively processing steps —
// the paper's definition of flow-orchestration overhead.
func (r RunRecord) TotalOverhead() time.Duration {
	if o := r.Runtime() - r.TotalActive(); o > 0 {
		return o
	}
	return 0
}

// Options configures an engine.
type Options struct {
	// Policy is the completion-polling backoff (default: the paper's
	// exponential 1s doubling to 10min). Per-state StateDef.Policy wins.
	Policy Policy
	// StateOverhead models per-state orchestration cost (flow-service
	// state evaluation, auth, action invocation round trips).
	StateOverhead time.Duration
	// StatusLatency is the service round-trip added to every poll.
	StatusLatency time.Duration
	// MaxStateRetries re-invokes a failed action this many extra times
	// before failing the flow. Per-state StateDef.Retries wins.
	MaxStateRetries int
	// Checkpoints, when non-nil, persists per-state progress so
	// interrupted runs can be resumed.
	Checkpoints *CheckpointStore
	// RunLog, when non-nil, journals every terminal run record so a
	// restarted engine (see Engine.Restore) lists the campaign's history.
	// Journaling is best-effort: a persistence failure surfaces through
	// RunLog.Err, never fails the run.
	RunLog *RunLog
}

// Engine runs flows against registered action providers.
type Engine struct {
	mu        sync.Mutex
	rt        sim.Runtime
	opts      Options
	providers map[string]ActionProvider
	runs      map[string]*RunRecord
	order     []string
	nextID    int
	poller    poller
	sink      func(RunEvent)
}

// RunEvent is one run-level status transition: published to the
// optional event sink when a run starts (StateActive) and when it
// reaches a terminal state. The portal's SSE hub forwards these to
// watching clients instead of having them poll /api/flows.
type RunEvent struct {
	RunID  string    `json:"run_id"`
	Flow   string    `json:"flow"`
	Status State     `json:"status"`
	At     time.Time `json:"at"`
	Error  string    `json:"error,omitempty"`
}

// SetEventSink registers fn to receive run transitions. fn is called
// outside the engine lock and must not block; the portal hub's
// non-blocking Publish qualifies.
func (e *Engine) SetEventSink(fn func(RunEvent)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sink = fn
}

// notify publishes one transition from a record copied under the lock.
func (e *Engine) notify(rec RunRecord) {
	e.mu.Lock()
	sink := e.sink
	e.mu.Unlock()
	if sink == nil {
		return
	}
	at := rec.EndedAt
	if at.IsZero() {
		at = rec.StartedAt
	}
	sink(RunEvent{RunID: rec.RunID, Flow: rec.Flow, Status: rec.Status, At: at, Error: rec.Error})
}

// NewEngine returns an engine on the given runtime.
func NewEngine(rt sim.Runtime, opts Options) *Engine {
	if opts.Policy == nil {
		opts.Policy = DefaultExponential()
	}
	e := &Engine{
		rt:        rt,
		opts:      opts,
		providers: map[string]ActionProvider{},
		runs:      map[string]*RunRecord{},
	}
	e.poller.e = e
	return e
}

// RegisterProvider adds an action provider.
func (e *Engine) RegisterProvider(p ActionProvider) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.providers[p.Name()] = p
}

// PollStats reports the engine's completion-detection effort so far.
func (e *Engine) PollStats() PollStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.poller.stats
}

// Run starts a flow run and returns its run ID immediately. onDone (may be
// nil) receives the final record when the run reaches a terminal state.
func (e *Engine) Run(token string, def Definition, input map[string]any, onDone func(RunRecord)) (string, error) {
	return e.start(token, def, input, nil, nil, "", onDone)
}

// Resume continues a checkpointed run from its first incomplete states.
// The definition must match the one originally used.
func (e *Engine) Resume(token string, def Definition, runID string, onDone func(RunRecord)) error {
	if e.opts.Checkpoints == nil {
		return errors.New("flows: engine has no checkpoint store")
	}
	cp, err := e.opts.Checkpoints.Load(runID)
	if err != nil {
		return err
	}
	if cp.Flow != def.Name {
		return fmt.Errorf("flows: checkpoint is for flow %q, not %q", cp.Flow, def.Name)
	}
	_, err = e.start(token, def, cp.Input, cp.Done, cp.Results, runID, onDone)
	return err
}

func (e *Engine) start(token string, def Definition, input map[string]any, preDone []string,
	results Results, runID string, onDone func(RunRecord)) (string, error) {
	if err := def.Validate(); err != nil {
		return "", err
	}
	x := &runExec{
		e:          e,
		token:      token,
		def:        def,
		results:    results,
		onDone:     onDone,
		waiting:    make(map[string]int, len(def.States)),
		dependents: make(map[string][]string, len(def.States)),
		done:       make(map[string]bool, len(preDone)),
		remaining:  len(def.States),
	}
	if x.results == nil {
		x.results = Results{}
	}
	index := make(map[string]*StateDef, len(def.States))
	for i := range def.States {
		s := &def.States[i]
		index[s.Name] = s
		x.waiting[s.Name] = len(s.After)
		for _, dep := range s.After {
			x.dependents[dep] = append(x.dependents[dep], s.Name)
		}
	}
	x.states = index
	for _, name := range preDone {
		if _, ok := index[name]; !ok {
			return "", fmt.Errorf("flows: checkpoint state %q not in definition %q", name, def.Name)
		}
		if x.done[name] {
			continue
		}
		x.done[name] = true
		x.doneOrder = append(x.doneOrder, name)
		x.remaining--
		for _, child := range x.dependents[name] {
			x.waiting[child]--
		}
	}

	e.mu.Lock()
	for _, s := range def.States {
		if _, ok := e.providers[s.Provider]; !ok {
			e.mu.Unlock()
			return "", fmt.Errorf("flows: state %q references unregistered provider %q", s.Name, s.Provider)
		}
	}
	if runID == "" {
		e.nextID++
		runID = fmt.Sprintf("run-%06d", e.nextID)
	}
	rec := &RunRecord{RunID: runID, Flow: def.Name, Input: input, Status: StateActive, StartedAt: e.rt.Now()}
	if _, known := e.runs[runID]; !known {
		// A resume on the engine that already ran this ID (failed
		// in-process, retried from its checkpoint) replaces the record
		// in place rather than listing the run twice.
		e.order = append(e.order, runID)
	}
	e.runs[runID] = rec
	x.rec = rec
	var ready []string
	if x.remaining == 0 {
		// Fully checkpointed run: nothing left to execute.
		x.finished = true
		rec.Status = StateSucceeded
		rec.EndedAt = e.rt.Now()
		final := *rec
		e.mu.Unlock()
		e.notify(final)
		_ = e.opts.Checkpoints.remove(runID)
		if e.opts.RunLog != nil {
			_ = e.opts.RunLog.Append(final)
		}
		if onDone != nil {
			e.rt.AfterFunc(0, func() { onDone(final) })
		}
		return runID, nil
	}
	for _, s := range def.States {
		if !x.done[s.Name] && x.waiting[s.Name] == 0 {
			ready = append(ready, s.Name)
		}
	}
	started := *rec
	e.mu.Unlock()

	e.notify(started)
	for _, name := range ready {
		x.enterState(name)
	}
	return runID, nil
}

func (e *Engine) provider(name string) ActionProvider {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.providers[name]
}

// Record returns a copy of a run's record.
func (e *Engine) Record(runID string) (RunRecord, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	rec, ok := e.runs[runID]
	if !ok {
		return RunRecord{}, false
	}
	return *rec, true
}

// Runs returns copies of all run records in start order.
func (e *Engine) Runs() []RunRecord {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]RunRecord, 0, len(e.order))
	for _, id := range e.order {
		out = append(out, *e.runs[id])
	}
	return out
}

// runExec is the execution state of one in-flight run. All mutable fields
// are guarded by the engine mutex; provider calls and user callbacks are
// made outside it.
type runExec struct {
	e     *Engine
	token string
	def   Definition
	rec   *RunRecord

	states     map[string]*StateDef
	waiting    map[string]int      // state -> unmet dependency count
	dependents map[string][]string // state -> states waiting on it
	results    Results
	done       map[string]bool
	doneOrder  []string // completion order, persisted in checkpoints
	remaining  int      // states not yet completed
	finished   bool
	onDone     func(RunRecord)
}

// enterState begins one state: it stamps EnteredAt, pays the modeled
// orchestration overhead, then invokes the action.
func (x *runExec) enterState(name string) {
	e := x.e
	e.mu.Lock()
	if x.finished {
		e.mu.Unlock()
		return
	}
	sd := x.states[name]
	s := &stateRun{
		x:    x,
		sd:   sd,
		sr:   StateRecord{Name: sd.Name, Provider: sd.Provider, After: sd.After, EnteredAt: e.rt.Now()},
		idx:  -1,
		busy: true,
	}
	s.policy = sd.Policy
	if s.policy == nil {
		s.policy = e.opts.Policy
	}
	s.retries = e.opts.MaxStateRetries
	if sd.Retries > 0 {
		s.retries = sd.Retries
	} else if sd.Retries == NoRetries {
		s.retries = 0
	}
	e.mu.Unlock()
	// Orchestration cost: state evaluation, auth, invocation round trips
	// to the cloud-hosted flow service.
	e.rt.AfterFunc(e.opts.StateOverhead, s.invoke)
}

// stateTerminal handles a state's terminal action status (after retries
// are exhausted, for failures).
func (x *runExec) stateTerminal(s *stateRun, succeeded bool) {
	e := x.e
	if !succeeded {
		x.fail(s.sr)
		return
	}
	e.mu.Lock()
	if x.finished {
		e.mu.Unlock()
		return
	}
	name := s.sd.Name
	x.done[name] = true
	x.doneOrder = append(x.doneOrder, name)
	x.remaining--
	x.rec.States = append(x.rec.States, s.sr)
	var ready []string
	for _, child := range x.dependents[name] {
		if x.waiting[child]--; x.waiting[child] == 0 {
			ready = append(ready, child)
		}
	}
	runDone := x.remaining == 0
	var final RunRecord
	var snapshot checkpoint
	if runDone {
		x.finished = true
		x.rec.Status = StateSucceeded
		x.rec.EndedAt = e.rt.Now()
		final = *x.rec
	} else if e.opts.Checkpoints != nil {
		// Copy the results map: save() marshals outside the lock while
		// concurrent sibling states keep writing x.results.
		results := make(Results, len(x.results))
		for k, v := range x.results {
			results[k] = v
		}
		snapshot = checkpoint{
			RunID:   x.rec.RunID,
			Flow:    x.rec.Flow,
			Input:   x.rec.Input,
			Done:    append([]string(nil), x.doneOrder...),
			Results: results,
		}
	}
	e.mu.Unlock()

	if e.opts.Checkpoints != nil {
		if runDone {
			_ = e.opts.Checkpoints.remove(x.rec.RunID)
		} else {
			// Checkpoint persistence failures must not kill the flow; the
			// run continues and only resumability is lost.
			_ = e.opts.Checkpoints.save(snapshot)
		}
	}
	if runDone && e.opts.RunLog != nil {
		_ = e.opts.RunLog.Append(final)
	}
	for _, child := range ready {
		x.enterState(child)
	}
	if runDone {
		e.notify(final)
	}
	if runDone && x.onDone != nil {
		x.onDone(final)
	}
}

// fail terminates the run on a state failure. Sibling states still in
// flight are abandoned: their poller entries are dropped at the next
// sweep, their later signals are ignored, and they do not appear in the
// record.
func (x *runExec) fail(sr StateRecord) {
	e := x.e
	e.mu.Lock()
	if x.finished {
		e.mu.Unlock()
		return
	}
	x.finished = true
	x.rec.States = append(x.rec.States, sr)
	x.rec.Status = StateFailed
	x.rec.Error = fmt.Sprintf("state %q failed after %d attempts: %s", sr.Name, sr.Attempts, sr.Error)
	x.rec.EndedAt = e.rt.Now()
	final := *x.rec
	e.mu.Unlock()
	e.notify(final)
	if e.opts.RunLog != nil {
		_ = e.opts.RunLog.Append(final)
	}
	if x.onDone != nil {
		x.onDone(final)
	}
}

// resultsSnapshot returns a shallow copy of the results map so Params
// builders can read it without racing concurrent state completions.
func (x *runExec) resultsSnapshot() Results {
	e := x.e
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(Results, len(x.results))
	for k, v := range x.results {
		out[k] = v
	}
	return out
}

// stateRun drives one state's invoke/poll/retry lifecycle.
type stateRun struct {
	x       *runExec
	sd      *StateDef
	sr      StateRecord
	policy  Policy
	retries int
	params  map[string]any

	// poller bookkeeping, written by the state's owner.
	pollN     int
	timeoutAt time.Time // zero = no timeout
	watched   bool      // this attempt's provider will signal completion
	// poller bookkeeping guarded by the engine mutex.
	at        time.Time // next poll deadline
	seq       uint64
	idx       int  // position in the poll queue, -1 when not queued
	busy      bool // owned by an invoke or status callback, not the queue
	signalled bool // a signal arrived while busy
}

// invoke builds params (once) and submits the action, retrying failed
// submissions immediately up to the retry budget, then registers the
// action with the completion poller.
func (s *stateRun) invoke() {
	x, e := s.x, s.x.e
	e.mu.Lock()
	if x.finished {
		e.mu.Unlock()
		return
	}
	e.mu.Unlock()
	if s.params == nil && s.sr.Attempts == 0 {
		if s.sd.Params != nil {
			s.params = s.sd.Params(x.rec.Input, x.resultsSnapshot())
		}
		if s.sd.Facility != "" {
			if s.params == nil {
				s.params = map[string]any{}
			}
			s.params["facility"] = s.sd.Facility
		}
	}
	provider := e.provider(s.sd.Provider)
	for {
		s.sr.Attempts++
		actionID, err := provider.Invoke(x.token, s.params)
		if err != nil {
			s.sr.Error = err.Error()
			if s.sr.Attempts > s.retries {
				x.stateTerminal(s, false)
				return
			}
			continue
		}
		s.sr.ActionID = actionID
		s.sr.InvokedAt = e.rt.Now()
		break
	}
	s.pollN = 0
	s.timeoutAt = time.Time{}
	if s.sd.Timeout > 0 {
		s.timeoutAt = s.sr.InvokedAt.Add(s.sd.Timeout)
	}
	s.watched = false
	if _, push := s.policy.(Push); push {
		if w, ok := provider.(Watcher); ok {
			s.watched = w.Watch(s.sr.ActionID, func() { e.poller.signal(s) })
		}
	}
	e.poller.add(s, s.nextDeadline(s.sr.InvokedAt))
}

// nextDeadline computes the next poll instant from now, clamped to the
// attempt timeout so expiry is detected exactly on time. A watched
// action is polled only at its timeout (zero: never) — its signal queues
// it otherwise.
func (s *stateRun) nextDeadline(now time.Time) time.Time {
	if s.watched {
		return s.timeoutAt
	}
	at := now.Add(s.policy.Next(s.pollN) + s.x.e.opts.StatusLatency)
	if !s.timeoutAt.IsZero() && at.After(s.timeoutAt) {
		at = s.timeoutAt
	}
	return at
}

// handleStatus processes one poll result; it returns the state to the
// poller when the action is still active.
func (s *stateRun) handleStatus(status ActionStatus, err error) {
	x, e := s.x, s.x.e
	now := e.rt.Now()
	if err != nil {
		status = ActionStatus{State: StateFailed, Error: err.Error()}
	}
	if status.State == StateActive {
		if !s.timeoutAt.IsZero() && !now.Before(s.timeoutAt) {
			status = ActionStatus{
				State: StateFailed,
				Error: fmt.Sprintf("attempt %d still active after %v timeout", s.sr.Attempts, s.sd.Timeout),
			}
		} else {
			s.pollN++
			// A watched action read ACTIVE was signalled early (a remote
			// watcher's transport error): it is polled from now on, never
			// parked with no deadline.
			s.watched = false
			e.poller.add(s, s.nextDeadline(now))
			return
		}
	}
	s.sr.Started = status.Started
	s.sr.Completed = status.Completed
	s.sr.DetectedAt = now
	if status.State == StateSucceeded {
		e.mu.Lock()
		x.results[s.sd.Name] = status.Result
		e.mu.Unlock()
		x.stateTerminal(s, true)
		return
	}
	s.sr.Error = status.Error
	if s.sr.Attempts <= s.retries {
		// Re-invoke immediately; Polls keeps accumulating across attempts.
		s.invoke()
		return
	}
	x.stateTerminal(s, false)
}
