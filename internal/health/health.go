// Package health is the facility liveness subsystem: a Monitor drives
// periodic liveness checks against each watched target (a facility
// daemon's wire status endpoint, in production) and publishes a
// three-state health verdict — Up, Suspect, Down — with hysteresis on
// both edges, so one dropped probe does not shed a facility and one
// lucky probe does not resurrect a flapping one.
//
// The state machine is deliberately small:
//
//	Up      --suspectAfter consecutive failures-->  Suspect
//	Suspect --downAfter consecutive failures----->  Down
//	Suspect --1 success-------------------------->  Up
//	Down    --upAfter consecutive successes------>  Up
//
// Suspect is the soft edge: placement stops handing a suspect facility
// NEW work but sticky runs stay put (shedding on one lost probe would
// pay a re-stage for what is usually a blip). Down is the hard edge:
// the registry treats a Down facility exactly like a planned outage
// window — fresh placements avoid it and sticky runs fail over,
// journaled and replayed like every other placement mutation.
//
// The consumer-facing seam is Provider, the liveness twin of
// netprobe.PathQuality: facility.Registry reads verdicts through it
// (AttachHealth) without knowing whether they came from live wire
// pings or a test stub. Checks are driven through the sim.Runtime
// AfterFunc clock like netprobe.Prober; each target's check runs in
// its own goroutine with an in-flight guard, so one hung daemon
// delays only its own verdict, never the probing of its peers.
package health

import (
	"fmt"
	"sync"
	"time"

	"picoprobe/internal/sim"
)

// State is a target's health verdict.
type State int

// Health states, ordered by severity.
const (
	// Up: the target answers checks.
	Up State = iota
	// Suspect: recent checks failed but the failure streak is short of
	// the Down threshold. New work avoids a suspect target; existing
	// work stays.
	Suspect
	// Down: the failure streak crossed the Down threshold. The target
	// is treated like a planned outage until upAfter consecutive checks
	// succeed.
	Down
)

func (s State) String() string {
	switch s {
	case Up:
		return "up"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	}
	return fmt.Sprintf("health.State(%d)", int(s))
}

// Status is a point-in-time view of one target's health.
type Status struct {
	// State is the current verdict.
	State State
	// Since is when the current state was entered (zero until the first
	// check completes a transition or confirms Up).
	Since time.Time
	// LastCheck is when the most recent check completed.
	LastCheck time.Time
	// LastRTT is the duration of the most recent successful check.
	LastRTT time.Duration
	// LastErr is the most recent check failure ("" after a success).
	LastErr string
	// ConsecutiveFails / ConsecutiveOKs are the current streaks (at most
	// one of them is nonzero).
	ConsecutiveFails int
	ConsecutiveOKs   int
	// Checks and Fails count completed checks over the target's
	// lifetime.
	Checks uint64
	Fails  uint64
}

// Provider exposes health verdicts by target ID. It is the seam
// between detection and policy: the Monitor implements it over live
// checks, tests implement it as a map. Implementations must be safe
// for concurrent use.
type Provider interface {
	Health(id string) (Status, bool)
}

// Target performs one liveness check. Check must bound its own
// duration (give a wire client a short Timeout); the Monitor never
// cancels a check, it only refuses to start a second one for the same
// target while the first is in flight.
type Target interface {
	Check() error
}

// TargetFunc adapts a function to Target.
type TargetFunc func() error

// Check implements Target.
func (f TargetFunc) Check() error { return f() }

// Config parameterizes a Monitor.
type Config struct {
	// Interval is the per-target check period (0 = 1 s).
	Interval time.Duration
}

// The verdict thresholds, as consecutive-check streaks.
const (
	// suspectAfter failures move Up to Suspect: the first lost probe
	// raises suspicion.
	suspectAfter = 1
	// downAfter failures move Suspect to Down.
	downAfter = 3
	// upAfter successes move Down back to Up: a flapping daemon must hold
	// still to rejoin.
	upAfter = 2
)

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	return c
}

// Monitor drives periodic checks of registered targets and serves the
// verdicts through Provider. All methods are safe for concurrent use.
type Monitor struct {
	rt  sim.Runtime
	cfg Config

	mu      sync.Mutex
	order   []string
	targets map[string]*watched
	running bool
	stopped bool
	until   time.Time
}

type watched struct {
	target   Target
	inflight bool
	st       Status
}

// NewMonitor returns an idle Monitor; Register targets, then Start it.
func NewMonitor(rt sim.Runtime, cfg Config) *Monitor {
	return &Monitor{rt: rt, cfg: cfg.withDefaults(), targets: map[string]*watched{}}
}

// Register adds a target under id. A freshly registered target is Up —
// healthy until proven otherwise, the same optimism netprobe grants an
// unmeasured path. Registering after Start is allowed; the new target
// joins the next check round.
func (m *Monitor) Register(id string, t Target) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.targets[id]; dup {
		return fmt.Errorf("health: duplicate target %q", id)
	}
	m.targets[id] = &watched{target: t, st: Status{State: Up}}
	m.order = append(m.order, id)
	return nil
}

// Start begins the check loop. until bounds the loop in virtual or
// wall time (the netprobe.Prober contract); the zero time checks until
// Stop. Start is idempotent.
func (m *Monitor) Start(until time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.running {
		return
	}
	m.running = true
	m.stopped = false
	m.until = until
	m.rt.AfterFunc(m.cfg.Interval, m.tick)
}

// Stop halts checking after any in-flight round. Verdicts freeze at
// their last state.
func (m *Monitor) Stop() {
	m.mu.Lock()
	m.stopped = true
	m.mu.Unlock()
}

// tick launches one check per idle target, then reschedules itself. A
// target whose previous check is still in flight (a hung daemon
// holding a socket open) is skipped, not double-probed — its verdict
// advances when the slow check finally returns.
func (m *Monitor) tick() {
	m.mu.Lock()
	if m.stopped {
		m.running = false
		m.mu.Unlock()
		return
	}
	var launch []string
	for _, id := range m.order {
		w := m.targets[id]
		if !w.inflight {
			w.inflight = true
			launch = append(launch, id)
		}
	}
	until := m.until
	now := m.rt.Now()
	m.mu.Unlock()

	for _, id := range launch {
		go m.check(id)
	}

	if !until.IsZero() && !now.Add(m.cfg.Interval).Before(until) {
		m.mu.Lock()
		m.running = false
		m.mu.Unlock()
		return
	}
	m.rt.AfterFunc(m.cfg.Interval, m.tick)
}

// check runs one liveness probe and folds the outcome into the state
// machine.
func (m *Monitor) check(id string) {
	m.mu.Lock()
	w, ok := m.targets[id]
	if !ok {
		m.mu.Unlock()
		return
	}
	target := w.target
	m.mu.Unlock()

	start := time.Now()
	err := target.Check()
	rtt := time.Since(start)

	m.mu.Lock()
	defer m.mu.Unlock()
	w.inflight = false
	m.recordLocked(w, rtt, err)
}

// recordLocked applies one check outcome. It is the single transition
// path, so the hysteresis invariants hold no matter how checks arrive.
func (m *Monitor) recordLocked(w *watched, rtt time.Duration, err error) {
	now := m.rt.Now()
	st := &w.st
	st.LastCheck = now
	st.Checks++
	if st.Since.IsZero() {
		st.Since = now
	}
	if err != nil {
		st.Fails++
		st.ConsecutiveOKs = 0
		st.ConsecutiveFails++
		st.LastErr = err.Error()
		next := st.State
		switch {
		case st.ConsecutiveFails >= downAfter:
			next = Down
		case st.ConsecutiveFails >= suspectAfter && st.State == Up:
			next = Suspect
		}
		m.transitionLocked(st, next, now)
		return
	}
	st.ConsecutiveFails = 0
	st.ConsecutiveOKs++
	st.LastErr = ""
	st.LastRTT = rtt
	switch st.State {
	case Suspect:
		// Suspicion clears on the first good probe: the soft edge must
		// not strand a healthy facility behind a single blip.
		m.transitionLocked(st, Up, now)
	case Down:
		// Down clears only after a sustained streak: a flapping daemon
		// stays shed until it holds still for upAfter checks.
		if st.ConsecutiveOKs >= upAfter {
			m.transitionLocked(st, Up, now)
		}
	}
}

func (m *Monitor) transitionLocked(st *Status, next State, now time.Time) {
	if st.State == next {
		return
	}
	st.State = next
	st.Since = now
}

// Health implements Provider.
func (m *Monitor) Health(id string) (Status, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	w, ok := m.targets[id]
	if !ok {
		return Status{}, false
	}
	return w.st, true
}

// Observe folds one externally observed check outcome into id's state
// machine — a seam for consumers that already exchange traffic with
// the target (a transfer client's failed op is a liveness datum too)
// and for deterministic tests that drive transitions without a clock.
func (m *Monitor) Observe(id string, rtt time.Duration, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	w, ok := m.targets[id]
	if !ok {
		return
	}
	m.recordLocked(w, rtt, err)
}

// IDs returns the registered target IDs in registration order.
func (m *Monitor) IDs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.order...)
}
