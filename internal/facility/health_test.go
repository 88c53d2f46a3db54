package facility

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"picoprobe/internal/durable"
	"picoprobe/internal/health"
	"picoprobe/internal/scheduler"
	"picoprobe/internal/sim"
)

// stubHealth is a mutable health.Provider for tests.
type stubHealth struct {
	mu sync.Mutex
	h  map[string]health.Status
}

func newStubHealth() *stubHealth { return &stubHealth{h: map[string]health.Status{}} }

func (s *stubHealth) set(id string, st health.State) {
	s.mu.Lock()
	s.h[id] = health.Status{State: st, Checks: 10, Fails: 3, LastRTT: 5 * time.Millisecond}
	s.mu.Unlock()
}

func (s *stubHealth) Health(id string) (health.Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.h[id]
	return st, ok
}

func TestDownShedsFreshPlacements(t *testing.T) {
	k := sim.NewKernel()
	r := NewRegistry(k, 0)
	fast := testFacility(t, k, "fast", 1, 80e6)
	slow := testFacility(t, k, "slow", 1, 20e6)
	r.Add(fast)
	r.Add(slow)
	h := newStubHealth()
	r.AttachHealth(h)

	// Unwatched facilities are healthy: fast wins as before.
	dec, err := r.Place("run-1", "", 91_000_000)
	if err != nil || dec.Facility.ID() != "fast" {
		t.Fatalf("unwatched placement = %+v err=%v, want fast", dec, err)
	}

	// The heartbeat monitor declares fast Down: fresh runs hard-skip it.
	h.set("fast", health.Down)
	h.set("slow", health.Up)
	dec, err = r.Place("run-2", "", 91_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Facility.ID() != "slow" || dec.Reason != ReasonLeastECT {
		t.Errorf("fresh placement = %s/%s, want slow/least-ect", dec.Facility.ID(), dec.Reason)
	}
}

func TestUnhealthyFailoverStickyRun(t *testing.T) {
	k := sim.NewKernel()
	r := NewRegistry(k, 0)
	a := testFacility(t, k, "a", 1, 80e6)
	b := testFacility(t, k, "b", 1, 20e6)
	r.Add(a)
	r.Add(b)
	h := newStubHealth()
	r.AttachHealth(h)

	if dec, _ := r.Place("run-1", "", 91_000_000); dec.Facility.ID() != "a" {
		t.Fatalf("seed placement not at a: %+v", dec)
	}
	h.set("a", health.Down)
	dec, err := r.Place("run-1", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Facility.ID() != "b" || dec.Reason != ReasonFailoverUnhealthy || dec.From != "a" {
		t.Errorf("decision = %+v, want b/failover-unhealthy from a", dec)
	}
	st := r.Stats()
	if st.UnhealthyFailovers != 1 || st.Failovers != 1 || st.FailoversFrom["a"] != 1 {
		t.Errorf("stats = %+v", st)
	}
	// The run is sticky at b now, and returns to a only by fresh choice.
	if dec, _ := r.Place("run-1", "", 0); dec.Facility.ID() != "b" || dec.Reason != ReasonSticky {
		t.Errorf("follow-up = %+v, want sticky b", dec)
	}
}

// TestSuspectSoftAvoided: a Suspect facility loses fresh placements
// while a healthy one is up, but sticky runs stay — one lost heartbeat
// must not pay a re-stage.
func TestSuspectSoftAvoided(t *testing.T) {
	k := sim.NewKernel()
	r := NewRegistry(k, 0)
	fast := testFacility(t, k, "fast", 1, 80e6)
	slow := testFacility(t, k, "slow", 1, 20e6)
	r.Add(fast)
	r.Add(slow)
	h := newStubHealth()
	r.AttachHealth(h)

	if dec, _ := r.Place("run-1", "", 91_000_000); dec.Facility.ID() != "fast" {
		t.Fatal("seed placement not at fast")
	}
	h.set("fast", health.Suspect)
	h.set("slow", health.Up)

	// Fresh runs avoid the suspect facility.
	if dec, err := r.Place("run-2", "", 91_000_000); err != nil || dec.Facility.ID() != "slow" {
		t.Errorf("fresh placement = %+v err=%v, want slow", dec, err)
	}
	// The sticky run stays put, with no failover recorded.
	if dec, err := r.Place("run-1", "", 0); err != nil || dec.Facility.ID() != "fast" || dec.Reason != ReasonSticky {
		t.Errorf("sticky placement = %+v err=%v, want stay-put at fast", dec, err)
	}
	if st := r.Stats(); st.Failovers != 0 {
		t.Errorf("suspect must not fail over: %+v", st)
	}
}

// TestAllSuspectStillPlaces: when every facility is Suspect, the
// least-ECT one still takes fresh runs — a wobbly facility beats none.
func TestAllSuspectStillPlaces(t *testing.T) {
	k := sim.NewKernel()
	r := NewRegistry(k, 0)
	r.Add(testFacility(t, k, "a", 1, 80e6))
	r.Add(testFacility(t, k, "b", 1, 20e6))
	h := newStubHealth()
	r.AttachHealth(h)
	h.set("a", health.Suspect)
	h.set("b", health.Suspect)
	dec, err := r.Place("run-1", "", 91_000_000)
	if err != nil || dec.Facility == nil {
		t.Fatalf("all-suspect placement failed: %+v err=%v", dec, err)
	}
}

func TestAllDownError(t *testing.T) {
	k := sim.NewKernel()
	r := NewRegistry(k, 0)
	r.Add(testFacility(t, k, "a", 1, 80e6))
	r.Add(testFacility(t, k, "b", 1, 20e6))
	h := newStubHealth()
	r.AttachHealth(h)
	h.set("a", health.Down)
	h.set("b", health.Down)
	if dec, err := r.Place("run-1", "", 0); err == nil {
		t.Fatalf("placement with every facility Down succeeded: %+v", dec)
	}
	// Sticky runs on a Down facility must not stay put either.
	h.set("a", health.Up)
	if dec, _ := r.Place("run-2", "", 0); dec.Facility.ID() != "a" {
		t.Fatal("setup: run-2 not at a")
	}
	h.set("a", health.Down)
	if _, err := r.Place("run-2", "", 0); err == nil {
		t.Fatal("sticky run stayed on a Down facility with no alternative")
	}
}

// TestCausePrecedence: when several signals condemn a sticky run's
// facility at once, the failover carries the strongest cause — outage >
// unhealthy > degraded > budget — and only that cause's counter moves.
// Suspect alone moves nothing; it only diverts fresh placements.
func TestCausePrecedence(t *testing.T) {
	cases := []struct {
		name                                    string
		outage, down, degraded, budget, suspect bool
		want                                    Reason
	}{
		{name: "everything at once", outage: true, down: true, degraded: true, budget: true, want: ReasonFailoverOutage},
		{name: "down outranks degraded and budget", down: true, degraded: true, budget: true, want: ReasonFailoverUnhealthy},
		{name: "down outranks degraded", down: true, degraded: true, want: ReasonFailoverUnhealthy},
		{name: "degraded outranks budget", degraded: true, budget: true, want: ReasonFailoverDegraded},
		{name: "degraded outranks suspect", degraded: true, suspect: true, want: ReasonFailoverDegraded},
		{name: "budget alone", budget: true, want: ReasonFailoverBudget},
		{name: "suspect does not hide an over-budget queue", budget: true, suspect: true, want: ReasonFailoverBudget},
		{name: "suspect alone stays put", suspect: true, want: ReasonSticky},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel()
			epoch := k.Now()
			r := NewRegistry(k, time.Minute)
			a := testFacility(t, k, "a", 1, 80e6, Window{Start: epoch.Add(10 * time.Minute), End: epoch.Add(20 * time.Minute)})
			r.Add(a)
			r.Add(testFacility(t, k, "b", 1, 20e6))
			q := newStubQuality()
			r.AttachQuality(q, 50)
			h := newStubHealth()
			r.AttachHealth(h)
			if dec, _ := r.Place("run-1", "", 91_000_000); dec.Facility.ID() != "a" {
				t.Fatal("seed placement not at a")
			}

			if tc.outage {
				k.RunFor(15 * time.Minute)
			}
			switch {
			case tc.down:
				h.set("a", health.Down)
			case tc.suspect:
				h.set("a", health.Suspect)
			}
			if tc.degraded {
				q.set("a", 5, 1e6)
			}
			if tc.budget {
				for i := 0; i < 3; i++ {
					a.Sched.Submit("e", 10*time.Minute, func(scheduler.JobReport) {})
				}
			}

			dec, err := r.Place("run-1", "", 0)
			if err != nil {
				t.Fatal(err)
			}
			if dec.Reason != tc.want {
				t.Errorf("sticky run: reason = %s, want %s", dec.Reason, tc.want)
			}
			st := r.Stats()
			got := map[Reason]int{
				ReasonFailoverOutage:    st.OutageFailovers,
				ReasonFailoverUnhealthy: st.UnhealthyFailovers,
				ReasonFailoverDegraded:  st.DegradedFailovers,
				ReasonFailoverBudget:    st.BudgetFailovers,
			}
			for reason, n := range got {
				if want := btoi(reason == tc.want); n != want {
					t.Errorf("%s counter = %d, want %d (stats %+v)", reason, n, want, st)
				}
			}
			if st.Failovers != btoi(tc.want != ReasonSticky) {
				t.Errorf("failovers = %d (stats %+v)", st.Failovers, st)
			}
			// Every one of these signals diverts a fresh run.
			if dec, err := r.Place("run-2", "", 91_000_000); err != nil || dec.Facility.ID() != "b" {
				t.Errorf("fresh run = %+v err=%v, want b", dec, err)
			}
			k.Run()
		})
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestHealthDisabledIdenticalDecisions is the degeneracy contract: no
// provider, an attached-but-unwatching provider, and an all-Up provider
// must all decide identically to a pre-health registry.
func TestHealthDisabledIdenticalDecisions(t *testing.T) {
	build := func(attach, allUp bool) []string {
		k := sim.NewKernel()
		r := NewRegistry(k, 0)
		r.Add(testFacility(t, k, "a", 1, 80e6))
		r.Add(testFacility(t, k, "b", 1, 20e6))
		if attach {
			h := newStubHealth()
			if allUp {
				h.set("a", health.Up)
				h.set("b", health.Up)
			}
			r.AttachHealth(h)
		}
		var got []string
		for i, key := range []string{"r1", "r2", "r1", "r3", "r2"} {
			dec, err := r.Place(key, "", int64(i)*10_000_000)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, dec.Facility.ID()+"/"+string(dec.Reason))
		}
		return got
	}
	bare := build(false, false)
	unwatched := build(true, false)
	allUp := build(true, true)
	if !reflect.DeepEqual(bare, unwatched) {
		t.Errorf("unwatched provider changed decisions: %v vs %v", unwatched, bare)
	}
	if !reflect.DeepEqual(bare, allUp) {
		t.Errorf("all-Up provider changed decisions: %v vs %v", allUp, bare)
	}
}

// TestUnhealthyFailoverJournalReplay: the "unhealthy" cause round-trips
// through the durable journal; a restored registry keeps the split.
func TestUnhealthyFailoverJournalReplay(t *testing.T) {
	dir := t.TempDir()
	k := sim.NewKernel()
	r := NewRegistry(k, 0)
	r.Add(testFacility(t, k, "a", 1, 80e6))
	r.Add(testFacility(t, k, "b", 1, 20e6))
	if _, err := r.OpenJournal(dir, durable.Options{}); err != nil {
		t.Fatal(err)
	}
	h := newStubHealth()
	r.AttachHealth(h)
	r.Place("run-1", "", 91_000_000)
	h.set("a", health.Down)
	if dec, err := r.Place("run-1", "", 0); err != nil || dec.Reason != ReasonFailoverUnhealthy {
		t.Fatalf("expected unhealthy failover, got %+v err=%v", dec, err)
	}
	want := r.Stats()
	if want.UnhealthyFailovers != 1 {
		t.Fatalf("UnhealthyFailovers = %d, want 1", want.UnhealthyFailovers)
	}

	k2 := sim.NewKernel()
	r2 := NewRegistry(k2, 0)
	r2.Add(testFacility(t, k2, "a", 1, 80e6))
	r2.Add(testFacility(t, k2, "b", 1, 20e6))
	if _, err := r2.OpenJournal(dir, durable.Options{}); err != nil {
		t.Fatal(err)
	}
	if got := r2.Stats(); !reflect.DeepEqual(got, want) {
		t.Errorf("restored stats = %+v, want %+v", got, want)
	}
	if r2.sticky["run-1"] != "b" {
		t.Errorf("restored sticky = %q, want b", r2.sticky["run-1"])
	}
}

func TestSnapshotHealthBlock(t *testing.T) {
	k := sim.NewKernel()
	r := NewRegistry(k, 0)
	r.Add(testFacility(t, k, "a", 1, 80e6))
	r.Add(testFacility(t, k, "b", 1, 20e6))

	// No provider: nil health everywhere (monitoring disabled).
	for _, st := range r.Snapshot() {
		if st.Health != nil {
			t.Fatalf("health without provider: %+v", st.Health)
		}
	}

	h := newStubHealth()
	r.AttachHealth(h)
	h.set("a", health.Suspect)
	snaps := r.Snapshot()
	if snaps[0].Health == nil {
		t.Fatal("watched facility lost its health block")
	}
	if snaps[0].Health.State != "suspect" || snaps[0].Health.Checks != 10 || snaps[0].Health.Fails != 3 {
		t.Errorf("a health = %+v", snaps[0].Health)
	}
	if snaps[0].Health.RTTMs != 5 {
		t.Errorf("RTTMs = %v, want 5", snaps[0].Health.RTTMs)
	}
	if snaps[1].Health != nil {
		t.Errorf("unwatched facility should have nil health, got %+v", snaps[1].Health)
	}
}

// TestConcurrentHealthWritersVsPlacement is the -race gate for the
// registry's health seam: monitor writers flip verdicts while placement
// and snapshot readers run.
func TestConcurrentHealthWritersVsPlacement(t *testing.T) {
	k := sim.NewKernel()
	r := NewRegistry(k, 0)
	r.Add(testFacility(t, k, "a", 2, 80e6))
	r.Add(testFacility(t, k, "b", 2, 20e6))
	h := newStubHealth()
	r.AttachHealth(h)

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			states := []health.State{health.Up, health.Suspect, health.Up, health.Down}
			for i := 0; i < 2000; i++ {
				h.set("a", states[(i+w)%len(states)])
				h.set("b", health.Up)
			}
		}(w)
	}
	for rd := 0; rd < 3; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if _, err := r.Place("hammer", "", 10_000_000); err != nil {
					t.Errorf("place: %v", err)
					return
				}
				if i%100 == 0 {
					r.Snapshot()
					r.Stats()
				}
			}
		}(rd)
	}
	wg.Wait()
}
