package health

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"picoprobe/internal/sim"
)

var errProbe = errors.New("probe failed")

// newObserved returns a monitor with one registered target whose checks
// are driven entirely through Observe, so transitions are deterministic.
func newObserved(t *testing.T, cfg Config) *Monitor {
	t.Helper()
	m := NewMonitor(sim.NewKernel(), cfg)
	if err := m.Register("fac", TargetFunc(func() error { return nil })); err != nil {
		t.Fatal(err)
	}
	return m
}

func state(t *testing.T, m *Monitor, id string) Status {
	t.Helper()
	st, ok := m.Health(id)
	if !ok {
		t.Fatalf("target %q not watched", id)
	}
	return st
}

func TestFreshTargetIsUp(t *testing.T) {
	m := newObserved(t, Config{})
	if st := state(t, m, "fac"); st.State != Up {
		t.Fatalf("fresh target = %v, want Up", st.State)
	}
	if _, ok := m.Health("nope"); ok {
		t.Fatal("unknown target reported as watched")
	}
}

func TestDuplicateRegisterRejected(t *testing.T) {
	m := newObserved(t, Config{})
	if err := m.Register("fac", TargetFunc(func() error { return nil })); err == nil {
		t.Fatal("duplicate Register accepted")
	}
	if got := m.IDs(); len(got) != 1 || got[0] != "fac" {
		t.Fatalf("IDs = %v, want [fac]", got)
	}
}

func TestFirstFailureRaisesSuspect(t *testing.T) {
	m := newObserved(t, Config{})
	m.Observe("fac", 0, errProbe)
	st := state(t, m, "fac")
	if st.State != Suspect {
		t.Fatalf("after 1 failure = %v, want Suspect", st.State)
	}
	if st.LastErr != errProbe.Error() {
		t.Fatalf("LastErr = %q, want %q", st.LastErr, errProbe)
	}
}

func TestDownAfterConsecutiveFailures(t *testing.T) {
	m := newObserved(t, Config{})
	for i := 0; i < 2; i++ {
		m.Observe("fac", 0, errProbe)
	}
	if st := state(t, m, "fac"); st.State != Suspect {
		t.Fatalf("after 2 failures = %v, want Suspect (DownAfter=3)", st.State)
	}
	m.Observe("fac", 0, errProbe)
	st := state(t, m, "fac")
	if st.State != Down {
		t.Fatalf("after 3 failures = %v, want Down", st.State)
	}
	if st.Checks != 3 || st.Fails != 3 {
		t.Fatalf("Checks/Fails = %d/%d, want 3/3", st.Checks, st.Fails)
	}
}

func TestSuspectClearsOnFirstSuccess(t *testing.T) {
	m := newObserved(t, Config{})
	m.Observe("fac", 0, errProbe)
	m.Observe("fac", 7*time.Millisecond, nil)
	st := state(t, m, "fac")
	if st.State != Up {
		t.Fatalf("suspect + 1 OK = %v, want Up", st.State)
	}
	if st.LastErr != "" {
		t.Fatalf("LastErr = %q, want cleared", st.LastErr)
	}
	if st.LastRTT != 7*time.Millisecond {
		t.Fatalf("LastRTT = %v, want 7ms", st.LastRTT)
	}
}

func TestDownNeedsUpAfterConsecutiveSuccesses(t *testing.T) {
	m := newObserved(t, Config{})
	for i := 0; i < downAfter; i++ {
		m.Observe("fac", 0, errProbe)
	}
	if st := state(t, m, "fac"); st.State != Down {
		t.Fatalf("setup: %v, want Down", st.State)
	}
	// One success is not enough to rejoin.
	m.Observe("fac", 0, nil)
	if st := state(t, m, "fac"); st.State != Down {
		t.Fatalf("down + 1 OK = %v, want still Down (UpAfter=2)", st.State)
	}
	// A failure resets the recovery streak.
	m.Observe("fac", 0, errProbe)
	m.Observe("fac", 0, nil)
	if st := state(t, m, "fac"); st.State != Down {
		t.Fatalf("interrupted recovery = %v, want still Down", st.State)
	}
	m.Observe("fac", 0, nil)
	if st := state(t, m, "fac"); st.State != Up {
		t.Fatalf("down + 2 consecutive OKs = %v, want Up", st.State)
	}
}

func TestStreaksAreExclusive(t *testing.T) {
	m := newObserved(t, Config{})
	m.Observe("fac", 0, errProbe)
	m.Observe("fac", 0, nil)
	st := state(t, m, "fac")
	if st.ConsecutiveFails != 0 || st.ConsecutiveOKs != 1 {
		t.Fatalf("streaks = %d fails / %d OKs, want 0/1", st.ConsecutiveFails, st.ConsecutiveOKs)
	}
}

func TestDefaultsClampDownAfter(t *testing.T) {
	// The thresholds are constants now; what the clamp guaranteed — a
	// target is never Down before it was Suspect — is a property of them.
	if downAfter < suspectAfter {
		t.Fatalf("downAfter = %d below suspectAfter = %d", downAfter, suspectAfter)
	}
	if def := (Config{}).withDefaults(); def.Interval != time.Second {
		t.Fatalf("zero-value defaults = %+v", def)
	}
}

func TestStateStrings(t *testing.T) {
	for st, want := range map[State]string{Up: "up", Suspect: "suspect", Down: "down", State(9): "health.State(9)"} {
		if got := st.String(); got != want {
			t.Fatalf("State(%d).String() = %q, want %q", int(st), got, want)
		}
	}
}

// TestMonitorLiveLoop exercises the real check loop: a target that
// starts failing is detected and marked Down, then recovers to Up once
// the fault clears, all without any Observe calls.
func TestMonitorLiveLoop(t *testing.T) {
	rt := sim.NewLiveRuntime(1)
	m := NewMonitor(rt, Config{Interval: time.Millisecond})
	var failing atomic.Bool
	if err := m.Register("fac", TargetFunc(func() error {
		if failing.Load() {
			return errProbe
		}
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	m.Start(time.Time{})
	defer m.Stop()

	waitFor := func(want State) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if st, _ := m.Health("fac"); st.State == want {
				return
			}
			time.Sleep(time.Millisecond)
		}
		st, _ := m.Health("fac")
		t.Fatalf("timed out waiting for %v; state = %v (%d checks, %d fails)", want, st.State, st.Checks, st.Fails)
	}

	failing.Store(true)
	waitFor(Down)
	failing.Store(false)
	waitFor(Up)
}

// TestMonitorHungTargetNotDoublProbed verifies the in-flight guard: a
// check that never returns occupies its slot, so the monitor launches at
// most one probe for that target while peers keep being probed.
func TestMonitorHungTargetNotDoubleProbed(t *testing.T) {
	rt := sim.NewLiveRuntime(1)
	m := NewMonitor(rt, Config{Interval: time.Millisecond})
	var hungStarts, peerChecks atomic.Int64
	block := make(chan struct{})
	if err := m.Register("hung", TargetFunc(func() error {
		hungStarts.Add(1)
		<-block
		return errProbe
	})); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("peer", TargetFunc(func() error {
		peerChecks.Add(1)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	m.Start(time.Time{})
	defer m.Stop()
	defer close(block)

	deadline := time.Now().Add(5 * time.Second)
	for peerChecks.Load() < 10 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := peerChecks.Load(); n < 10 {
		t.Fatalf("peer probed %d times, want >= 10 (hung target must not block peers)", n)
	}
	if n := hungStarts.Load(); n != 1 {
		t.Fatalf("hung target probed %d times, want exactly 1 (in-flight guard)", n)
	}
}

// TestMonitorStopFreezesVerdicts: after Stop, no further checks run.
func TestMonitorStopFreezesVerdicts(t *testing.T) {
	rt := sim.NewLiveRuntime(1)
	m := NewMonitor(rt, Config{Interval: time.Millisecond})
	var checks atomic.Int64
	if err := m.Register("fac", TargetFunc(func() error {
		checks.Add(1)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	m.Start(time.Time{})
	deadline := time.Now().Add(5 * time.Second)
	for checks.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	m.Stop()
	time.Sleep(20 * time.Millisecond)
	frozen := checks.Load()
	time.Sleep(50 * time.Millisecond)
	if got := checks.Load(); got != frozen {
		t.Fatalf("checks advanced after Stop: %d -> %d", frozen, got)
	}
}

// TestMonitorBoundedRun: a non-zero `until` stops the loop without
// Stop, freezing the check count.
func TestMonitorBoundedRun(t *testing.T) {
	rt := sim.NewLiveRuntime(1)
	m := NewMonitor(rt, Config{Interval: 2 * time.Millisecond})
	var checks atomic.Int64
	if err := m.Register("fac", TargetFunc(func() error {
		checks.Add(1)
		return nil
	})); err != nil {
		t.Fatal(err)
	}
	m.Start(rt.Now().Add(100 * time.Millisecond))
	deadline := time.Now().Add(5 * time.Second)
	for checks.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := checks.Load(); n < 3 {
		t.Fatalf("bounded run launched only %d checks", n)
	}
	// Past `until` the loop must stop on its own.
	time.Sleep(150 * time.Millisecond)
	frozen := checks.Load()
	time.Sleep(50 * time.Millisecond)
	if got := checks.Load(); got != frozen {
		t.Fatalf("checks advanced after until: %d -> %d", frozen, got)
	}
}

// TestMonitorConcurrency hammers Observe/Health/Register from many
// goroutines; run under -race this is the data-race canary.
func TestMonitorConcurrency(t *testing.T) {
	rt := sim.NewLiveRuntime(1)
	m := NewMonitor(rt, Config{Interval: time.Millisecond})
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("fac-%d", i)
		if err := m.Register(id, TargetFunc(func() error { return nil })); err != nil {
			t.Fatal(err)
		}
	}
	m.Start(time.Time{})
	defer m.Stop()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("fac-%d", g%4)
			for i := 0; i < 200; i++ {
				if i%3 == 0 {
					m.Observe(id, time.Millisecond, nil)
				} else {
					m.Observe(id, 0, errProbe)
				}
				m.Health(id)
				m.IDs()
			}
		}(g)
	}
	wg.Wait()
}
