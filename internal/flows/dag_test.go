package flows

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"picoprobe/internal/sim"
)

// diamondDef is the canonical fan-out/fan-in shape:
//
//	Transfer → {Analysis ∥ Thumbnail} → Publication
func diamondDef() Definition {
	return Definition{
		Name: "diamond",
		States: []StateDef{
			{Name: "Transfer", Provider: "transfer"},
			{Name: "Analysis", Provider: "compute", After: []string{"Transfer"}},
			{Name: "Thumbnail", Provider: "thumb", After: []string{"Transfer"}},
			{Name: "Publication", Provider: "search", After: []string{"Analysis", "Thumbnail"}},
		},
	}
}

func TestValidateDAG(t *testing.T) {
	bad := []Definition{
		{Name: "x", States: []StateDef{{Name: "a", Provider: "p", After: []string{"ghost"}}}},
		{Name: "x", States: []StateDef{{Name: "a", Provider: "p", After: []string{"a"}}}},
		{Name: "x", States: []StateDef{
			{Name: "a", Provider: "p", After: []string{"b"}},
			{Name: "b", Provider: "p", After: []string{"a"}},
		}},
		{Name: "x", States: []StateDef{
			{Name: "a", Provider: "p"},
			{Name: "b", Provider: "p", After: []string{"c"}},
			{Name: "c", Provider: "p", After: []string{"b"}},
		}},
	}
	for i, d := range bad {
		if d.Validate() == nil {
			t.Errorf("case %d: invalid DAG accepted", i)
		}
	}
	if err := diamondDef().Validate(); err != nil {
		t.Errorf("valid DAG rejected: %v", err)
	}
}

func TestLinearShimChainsStates(t *testing.T) {
	lin := threeStateDef().Linear()
	if len(lin.States[0].After) != 0 {
		t.Errorf("root After = %v", lin.States[0].After)
	}
	for i := 1; i < len(lin.States); i++ {
		after := lin.States[i].After
		if len(after) != 1 || after[0] != lin.States[i-1].Name {
			t.Errorf("state %d After = %v", i, after)
		}
	}
	// Only Linear chains: a definition that declares no edges runs as
	// declared, every state a root.
	k := sim.NewKernel()
	e := NewEngine(k, Options{Policy: Constant{Interval: time.Second}})
	e.RegisterProvider(newFake("transfer", k, 2*time.Second))
	var final RunRecord
	par := Definition{Name: "p", States: []StateDef{
		{Name: "a", Provider: "transfer"},
		{Name: "b", Provider: "transfer"},
	}}
	if _, err := e.Run("tok", par, nil, func(r RunRecord) { final = r }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if final.Status != StateSucceeded || len(final.States) != 2 {
		t.Fatalf("edge-less run: status %s, %d states", final.Status, len(final.States))
	}
	for _, s := range final.States {
		if len(s.After) != 0 || !s.EnteredAt.Equal(final.States[0].EnteredAt) {
			t.Errorf("state %s: After = %v, entered %v; want a root entered with the run", s.Name, s.After, s.EnteredAt)
		}
	}
}

// TestDiamondOverlapsAndFansIn is the scenario v1 could not express:
// the two middle states must run concurrently, and Publication must wait
// for both.
func TestDiamondOverlapsAndFansIn(t *testing.T) {
	k := sim.NewKernel()
	e := NewEngine(k, Options{Policy: Constant{Interval: time.Second}})
	e.RegisterProvider(newFake("transfer", k, 2*time.Second))
	e.RegisterProvider(newFake("compute", k, 10*time.Second))
	e.RegisterProvider(newFake("thumb", k, 3*time.Second))
	e.RegisterProvider(newFake("search", k, time.Second))

	var final RunRecord
	sawBoth := false
	def := diamondDef()
	def.States[3].Params = func(_ map[string]any, results Results) map[string]any {
		if results["Analysis"]["from"] == "compute" && results["Thumbnail"]["from"] == "thumb" {
			sawBoth = true
		}
		return nil
	}
	if _, err := e.Run("tok", def, nil, func(r RunRecord) { final = r }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if err := k.Err(); err != nil {
		t.Fatal(err)
	}
	if final.Status != StateSucceeded {
		t.Fatalf("status = %s (%s)", final.Status, final.Error)
	}
	if len(final.States) != 4 {
		t.Fatalf("states = %d", len(final.States))
	}
	byName := map[string]StateRecord{}
	for _, s := range final.States {
		byName[s.Name] = s
	}
	an, th, pub := byName["Analysis"], byName["Thumbnail"], byName["Publication"]
	// Fan-out: both middle states entered at the same instant and their
	// provider-side active windows overlap.
	if !an.EnteredAt.Equal(th.EnteredAt) {
		t.Errorf("fan-out not concurrent: Analysis entered %v, Thumbnail %v", an.EnteredAt, th.EnteredAt)
	}
	if !th.Started.Before(an.Completed) || !an.Started.Before(th.Completed) {
		t.Errorf("active windows do not overlap: analysis [%v,%v] thumbnail [%v,%v]",
			an.Started, an.Completed, th.Started, th.Completed)
	}
	// Fan-in: Publication starts only after the slower branch is detected.
	slower := an.DetectedAt
	if th.DetectedAt.After(slower) {
		slower = th.DetectedAt
	}
	if pub.EnteredAt.Before(slower) {
		t.Errorf("fan-in broken: Publication entered %v before slower branch detected %v", pub.EnteredAt, slower)
	}
	if !sawBoth {
		t.Error("fan-in params did not see both branch results")
	}
	// The DAG finishes in max(branch) time, not sum: wall < sum of active.
	if final.Runtime() >= final.TotalActive() {
		t.Errorf("no overlap gain: runtime %v vs total active %v", final.Runtime(), final.TotalActive())
	}
	// Executed dependencies are recorded for portal display.
	if len(pub.After) != 2 {
		t.Errorf("Publication After = %v", pub.After)
	}
}

func TestBranchFailureAbandonsSiblings(t *testing.T) {
	k := sim.NewKernel()
	e := NewEngine(k, Options{Policy: Constant{Interval: time.Second}})
	e.RegisterProvider(newFake("transfer", k, time.Second))
	e.RegisterProvider(newFailing("compute", k, time.Second))
	e.RegisterProvider(newFake("thumb", k, 30*time.Second))
	e.RegisterProvider(newFake("search", k, time.Second))
	var final RunRecord
	e.Run("tok", diamondDef(), nil, func(r RunRecord) { final = r })
	k.Run()
	if final.Status != StateFailed {
		t.Fatalf("status = %s", final.Status)
	}
	if !strings.Contains(final.Error, `state "Analysis" failed`) {
		t.Errorf("error = %q", final.Error)
	}
	for _, s := range final.States {
		if s.Name == "Publication" {
			t.Error("Publication ran despite failed dependency")
		}
	}
	// The slow sibling is abandoned, not recorded, and the run ends at the
	// failure instant rather than after the 30 s thumbnail.
	if final.Runtime() > 10*time.Second {
		t.Errorf("run lingered %v waiting on abandoned sibling", final.Runtime())
	}
}

func TestPerStateOverrides(t *testing.T) {
	k := sim.NewKernel()
	e := NewEngine(k, Options{Policy: Exponential{Initial: time.Minute, Factor: 2, Cap: time.Hour}})
	e.RegisterProvider(newFake("transfer", k, 2*time.Second))
	def := Definition{Name: "f", States: []StateDef{
		// Without the override the first poll would land at 1 min; the
		// per-state constant policy detects at 3 s.
		{Name: "T", Provider: "transfer", Policy: Constant{Interval: time.Second}},
	}}
	var final RunRecord
	e.Run("tok", def, nil, func(r RunRecord) { final = r })
	k.Run()
	if final.Status != StateSucceeded {
		t.Fatal(final.Error)
	}
	if got := final.States[0].DetectedAt.Sub(final.States[0].InvokedAt); got != 2*time.Second {
		t.Errorf("detection with per-state policy = %v, want 2s", got)
	}
}

func TestPerStateTimeoutFailsHungAction(t *testing.T) {
	k := sim.NewKernel()
	e := NewEngine(k, Options{Policy: Constant{Interval: time.Minute}})
	// The action takes an hour; the state gives up after 5 minutes.
	e.RegisterProvider(newFake("transfer", k, time.Hour))
	def := Definition{Name: "f", States: []StateDef{
		{Name: "T", Provider: "transfer", Timeout: 5 * time.Minute, Retries: NoRetries},
	}}
	var final RunRecord
	e.Run("tok", def, nil, func(r RunRecord) { final = r })
	k.Run()
	if final.Status != StateFailed {
		t.Fatalf("status = %s", final.Status)
	}
	sr := final.States[0]
	if !strings.Contains(sr.Error, "timeout") {
		t.Errorf("error = %q", sr.Error)
	}
	// Detection happens exactly at the timeout deadline (polls clamp).
	if got := sr.DetectedAt.Sub(sr.InvokedAt); got != 5*time.Minute {
		t.Errorf("timed out after %v, want 5m", got)
	}
}

func TestPerStateRetriesOverride(t *testing.T) {
	k := sim.NewKernel()
	e := NewEngine(k, Options{Policy: Constant{Interval: time.Second}, MaxStateRetries: 0})
	tp := newFake("transfer", k, time.Second)
	tp.failNext = 2
	e.RegisterProvider(tp)
	def := Definition{Name: "f", States: []StateDef{
		{Name: "T", Provider: "transfer", Retries: 2},
	}}
	var final RunRecord
	e.Run("tok", def, nil, func(r RunRecord) { final = r })
	k.Run()
	if final.Status != StateSucceeded {
		t.Fatalf("status = %s (%s)", final.Status, final.Error)
	}
	if final.States[0].Attempts != 3 {
		t.Errorf("attempts = %d, want 3", final.States[0].Attempts)
	}
}

// TestBatchedSweepsServiceManyRuns is the scaling claim behind the
// poller: with many concurrent runs polling on the same policy, status
// calls follow each run's own schedule while wake-ups track distinct poll
// instants (sub-linear in runs). The schedule is analytic: a 9 s action
// under DefaultExponential is polled at 1, 3, 7 and 15 s — 4 polls a run.
func TestBatchedSweepsServiceManyRuns(t *testing.T) {
	const runs, pollsPerRun = 200, 4
	k := sim.NewKernel()
	e := NewEngine(k, Options{Policy: DefaultExponential()})
	e.RegisterProvider(newFake("transfer", k, 9*time.Second))
	def := Definition{Name: "f", States: []StateDef{{Name: "T", Provider: "transfer"}}}
	completed := 0
	for i := 0; i < runs; i++ {
		if _, err := e.Run("tok", def, nil, func(r RunRecord) {
			completed++
			if r.States[0].Polls != pollsPerRun {
				t.Errorf("run %s polled %d times, want %d", r.RunID, r.States[0].Polls, pollsPerRun)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	k.Run()
	if err := k.Err(); err != nil {
		t.Fatal(err)
	}
	if completed != runs {
		t.Fatalf("completed %d/%d runs", completed, runs)
	}
	st := e.PollStats()
	if st.StatusCalls != runs*pollsPerRun {
		t.Errorf("status calls = %d, want %d (the per-run schedule)", st.StatusCalls, runs*pollsPerRun)
	}
	// All runs start at the same instant with the same backoff, so every
	// sweep services all of them: wake-ups stay near the per-run schedule
	// length instead of runs×4.
	if st.Wakeups > runs*pollsPerRun/10 {
		t.Errorf("wakeups = %d, not sub-linear in %d runs (%d status calls)", st.Wakeups, runs, st.StatusCalls)
	}
}

// TestDAGCheckpointResume interrupts a diamond run mid-flight and resumes
// it on a fresh engine: completed states must not be re-invoked and their
// persisted results must feed the fan-in unchanged.
func TestDAGCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	store, err := NewCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: Transfer and Thumbnail complete; Analysis fails for good.
	k := sim.NewKernel()
	e := NewEngine(k, Options{Policy: Constant{Interval: time.Second}, Checkpoints: store})
	tp := newFake("transfer", k, time.Second)
	th := newFake("thumb", k, 2*time.Second)
	e.RegisterProvider(tp)
	e.RegisterProvider(th)
	e.RegisterProvider(newFailing("compute", k, 10*time.Second))
	e.RegisterProvider(newFake("search", k, time.Second))
	var final RunRecord
	runID, _ := e.Run("tok", diamondDef(), map[string]any{"file": "x"}, func(r RunRecord) { final = r })
	k.Run()
	if final.Status != StateFailed {
		t.Fatalf("phase 1 status = %s", final.Status)
	}
	cp, err := store.Load(runID)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Done) != 2 {
		t.Fatalf("checkpointed states = %v", cp.Done)
	}

	// Phase 2: a fresh engine ("next session") resumes with a working
	// compute provider.
	k2 := sim.NewKernel()
	e2 := NewEngine(k2, Options{Policy: Constant{Interval: time.Second}, Checkpoints: store})
	tp2 := newFake("transfer", k2, time.Second)
	th2 := newFake("thumb", k2, 2*time.Second)
	e2.RegisterProvider(tp2)
	e2.RegisterProvider(th2)
	e2.RegisterProvider(newFake("compute", k2, 10*time.Second))
	e2.RegisterProvider(newFake("search", k2, time.Second))
	start := k2.Now()
	var resumed RunRecord
	if err := e2.Resume("tok", diamondDef(), runID, func(r RunRecord) { resumed = r }); err != nil {
		t.Fatal(err)
	}
	k2.Run()
	if resumed.Status != StateSucceeded {
		t.Fatalf("resumed status = %s (%s)", resumed.Status, resumed.Error)
	}
	if tp2.invokes != 0 || th2.invokes != 0 {
		t.Errorf("completed states re-invoked: transfer %d, thumbnail %d", tp2.invokes, th2.invokes)
	}
	// Only Analysis and Publication execute; timings stay consistent:
	// Analysis starts immediately (its dependency is already done), its
	// 10s action is detected exactly at 10s by the 1s constant polls, and
	// Publication's 1s action at 11s — no transfer or thumbnail replay.
	if got := len(resumed.States); got != 2 {
		t.Fatalf("resumed states = %d (%v)", got, resumed.States)
	}
	if resumed.States[0].Name != "Analysis" || resumed.States[1].Name != "Publication" {
		t.Errorf("resumed order = %s, %s", resumed.States[0].Name, resumed.States[1].Name)
	}
	if !resumed.States[0].EnteredAt.Equal(start) {
		t.Errorf("Analysis entered %v, want immediate resume at %v", resumed.States[0].EnteredAt, start)
	}
	if got := resumed.Runtime(); got != 11*time.Second {
		t.Errorf("resumed runtime = %v, want 11s", got)
	}
	if pending, _ := store.Pending(); len(pending) != 0 {
		t.Errorf("pending after success = %v", pending)
	}
}

// TestResumeOnSameEngineNoDuplicateRun retries a failed run from its
// checkpoint on the engine that originally ran it: the run must appear
// once in Runs(), with the resumed record replacing the failed one.
func TestResumeOnSameEngineNoDuplicateRun(t *testing.T) {
	store, err := NewCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	e := NewEngine(k, Options{Policy: Constant{Interval: time.Second}, Checkpoints: store})
	e.RegisterProvider(newFake("transfer", k, time.Second))
	failing := newFailing("compute", k, time.Second)
	e.RegisterProvider(failing)
	def := Definition{Name: "retry", States: []StateDef{
		{Name: "Transfer", Provider: "transfer"},
		{Name: "Analysis", Provider: "compute"},
	}}.Linear()
	runID, _ := e.Run("tok", def, nil, nil)
	k.Run()

	// Swap in a working compute provider and resume in-process.
	e.RegisterProvider(newFake("compute", k, time.Second))
	var resumed RunRecord
	if err := e.Resume("tok", def, runID, func(r RunRecord) { resumed = r }); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if resumed.Status != StateSucceeded {
		t.Fatalf("resumed status = %s (%s)", resumed.Status, resumed.Error)
	}
	runs := e.Runs()
	if len(runs) != 1 {
		t.Fatalf("runs listed %d times: %v", len(runs), runs)
	}
	if runs[0].Status != StateSucceeded {
		t.Errorf("listed run status = %s, want resumed record", runs[0].Status)
	}
}

// TestLegacyCheckpointRejected ensures a v1 completed_states checkpoint
// fails loudly instead of silently resuming from zero progress.
func TestLegacyCheckpointRejected(t *testing.T) {
	dir := t.TempDir()
	store, err := NewCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	legacy := `{"run_id":"run-000001","flow":"f","input":null,"completed_states":2,"results":{}}`
	if err := os.WriteFile(filepath.Join(dir, "run-000001.json"), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load("run-000001"); err == nil || !strings.Contains(err.Error(), "v1") {
		t.Errorf("legacy checkpoint load err = %v", err)
	}
}

// TestFacilityConstraintForwardedToParams verifies the federation hook:
// a state's Facility constraint reaches the provider as the "facility"
// param key, overriding whatever the Params builder produced there, and
// states without a constraint are untouched.
func TestFacilityConstraintForwardedToParams(t *testing.T) {
	k := sim.NewKernel()
	e := NewEngine(k, Options{Policy: Constant{Interval: time.Second}})
	prov := newFake("transfer", k, time.Second)
	e.RegisterProvider(prov)
	def := Definition{
		Name: "constrained",
		States: []StateDef{
			{
				Name: "Pinned", Provider: "transfer", Facility: "olcf-orion",
				Params: func(map[string]any, Results) map[string]any {
					return map[string]any{"facility": "stale", "rel": "a.emdg"}
				},
			},
			// No Params builder at all: the constraint must still arrive.
			{Name: "BarePinned", Provider: "transfer", Facility: "alcf-eagle"},
			{Name: "Free", Provider: "transfer",
				Params: func(map[string]any, Results) map[string]any {
					return map[string]any{"rel": "b.emdg"}
				},
			},
		},
	}.Linear()
	if _, err := e.Run("tok", def, nil, nil); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if err := k.Err(); err != nil {
		t.Fatal(err)
	}
	// A chain, so the provider sees Pinned, BarePinned, Free in order.
	if len(prov.params) != 3 {
		t.Fatalf("invocations = %d", len(prov.params))
	}
	if got := prov.params[0]["facility"]; got != "olcf-orion" {
		t.Errorf("Pinned facility param = %v, want constraint to win", got)
	}
	if got := prov.params[0]["rel"]; got != "a.emdg" {
		t.Errorf("Pinned params lost builder keys: %v", prov.params[0])
	}
	if got := prov.params[1]["facility"]; got != "alcf-eagle" {
		t.Errorf("BarePinned facility param = %v", got)
	}
	if _, ok := prov.params[2]["facility"]; ok {
		t.Error("unconstrained state received a facility param")
	}
}
