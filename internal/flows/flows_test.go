package flows

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"picoprobe/internal/sim"
)

// fakeProvider completes each action a fixed duration after invocation,
// using the runtime's clock. It can fail the first N invocations.
type fakeProvider struct {
	mu       sync.Mutex
	name     string
	rt       sim.Runtime
	duration time.Duration
	failNext int
	invokes  int
	actions  map[string]*fakeAction
	nextID   int
	params   []map[string]any // params of each invocation, in order
}

type fakeAction struct {
	status ActionStatus
}

func newFake(name string, rt sim.Runtime, d time.Duration) *fakeProvider {
	return &fakeProvider{name: name, rt: rt, duration: d, actions: map[string]*fakeAction{}}
}

func (f *fakeProvider) Name() string { return f.name }

func (f *fakeProvider) Invoke(token string, params map[string]any) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.invokes++
	f.params = append(f.params, params)
	if f.failNext > 0 {
		f.failNext--
		return "", fmt.Errorf("%s: injected invoke failure", f.name)
	}
	f.nextID++
	id := fmt.Sprintf("%s-%d", f.name, f.nextID)
	a := &fakeAction{status: ActionStatus{State: StateActive, Started: f.rt.Now()}}
	f.actions[id] = a
	f.rt.AfterFunc(f.duration, func() {
		f.mu.Lock()
		a.status.State = StateSucceeded
		a.status.Completed = f.rt.Now()
		a.status.Result = map[string]any{"from": f.name}
		f.mu.Unlock()
	})
	return id, nil
}

func (f *fakeProvider) Status(token, actionID string) (ActionStatus, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	a, ok := f.actions[actionID]
	if !ok {
		return ActionStatus{}, fmt.Errorf("%s: unknown action %q", f.name, actionID)
	}
	return a.status, nil
}

// failingProvider always completes its actions as FAILED.
type failingProvider struct{ fakeProvider }

func newFailing(name string, rt sim.Runtime, d time.Duration) *failingProvider {
	return &failingProvider{fakeProvider{name: name, rt: rt, duration: d, actions: map[string]*fakeAction{}}}
}

func (f *failingProvider) Invoke(token string, params map[string]any) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.invokes++
	f.nextID++
	id := fmt.Sprintf("%s-%d", f.name, f.nextID)
	a := &fakeAction{status: ActionStatus{State: StateActive, Started: f.rt.Now()}}
	f.actions[id] = a
	f.rt.AfterFunc(f.duration, func() {
		f.mu.Lock()
		a.status.State = StateFailed
		a.status.Error = "action exploded"
		a.status.Completed = f.rt.Now()
		f.mu.Unlock()
	})
	return id, nil
}

func threeStateDef() Definition {
	return Definition{
		Name: "test-flow",
		States: []StateDef{
			{Name: "Transfer", Provider: "transfer"},
			{Name: "Analysis", Provider: "compute"},
			{Name: "Publication", Provider: "search"},
		},
	}.Linear()
}

func TestValidateDefinition(t *testing.T) {
	cases := []Definition{
		{},
		{Name: "x"},
		{Name: "x", States: []StateDef{{Provider: "p"}}},
		{Name: "x", States: []StateDef{{Name: "a"}}},
		{Name: "x", States: []StateDef{{Name: "a", Provider: "p"}, {Name: "a", Provider: "p"}}},
	}
	for i, d := range cases {
		if d.Validate() == nil {
			t.Errorf("case %d: invalid definition accepted", i)
		}
	}
	if err := threeStateDef().Validate(); err != nil {
		t.Errorf("valid definition rejected: %v", err)
	}
}

func TestRunHappyPathTiming(t *testing.T) {
	k := sim.NewKernel()
	e := NewEngine(k, Options{
		Policy:        Exponential{Initial: time.Second, Factor: 2, Cap: 10 * time.Minute},
		StateOverhead: 4 * time.Second,
	})
	e.RegisterProvider(newFake("transfer", k, 9*time.Second))
	e.RegisterProvider(newFake("compute", k, 6*time.Second))
	e.RegisterProvider(newFake("search", k, 500*time.Millisecond))

	var final RunRecord
	id, err := e.Run("tok", threeStateDef(), map[string]any{"file": "a.emdg"}, func(r RunRecord) { final = r })
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if err := k.Err(); err != nil {
		t.Fatal(err)
	}
	if final.Status != StateSucceeded {
		t.Fatalf("status = %s (%s)", final.Status, final.Error)
	}
	if final.RunID != id || len(final.States) != 3 {
		t.Fatalf("record = %+v", final)
	}
	// Transfer: overhead 4s, action 9s, polls at 1,3,7,15 -> detected 15s
	// after invoke. State wall = 4 + 15 = 19s.
	tr := final.States[0]
	if got := tr.DetectedAt.Sub(tr.EnteredAt); got != 19*time.Second {
		t.Errorf("transfer state wall = %v, want 19s", got)
	}
	if got := tr.Active(); got != 9*time.Second {
		t.Errorf("transfer active = %v, want 9s", got)
	}
	if tr.Polls != 4 {
		t.Errorf("transfer polls = %d, want 4", tr.Polls)
	}
	// Compute: 6s action detected at 7s; Search: 0.5s detected at 1s.
	if got := final.States[1].Polls; got != 3 {
		t.Errorf("compute polls = %d, want 3", got)
	}
	if got := final.States[2].Polls; got != 1 {
		t.Errorf("search polls = %d, want 1", got)
	}
	// Total runtime: 19 + (4+7) + (4+1) = 35s.
	if got := final.Runtime(); got != 35*time.Second {
		t.Errorf("runtime = %v, want 35s", got)
	}
	// Active 15.5s; overhead 19.5s.
	if got := final.TotalActive(); got != 15500*time.Millisecond {
		t.Errorf("active = %v, want 15.5s", got)
	}
	if got := final.TotalOverhead(); got != 19500*time.Millisecond {
		t.Errorf("overhead = %v, want 19.5s", got)
	}
}

func TestPushPolicyNearZeroOverhead(t *testing.T) {
	k := sim.NewKernel()
	e := NewEngine(k, Options{Policy: Push{Latency: 100 * time.Millisecond}})
	e.RegisterProvider(newFake("transfer", k, 9*time.Second))
	e.RegisterProvider(newFake("compute", k, 6*time.Second))
	e.RegisterProvider(newFake("search", k, 500*time.Millisecond))
	var final RunRecord
	e.Run("tok", threeStateDef(), nil, func(r RunRecord) { final = r })
	k.Run()
	if final.Status != StateSucceeded {
		t.Fatal(final.Error)
	}
	if got := final.TotalOverhead(); got > time.Second {
		t.Errorf("push overhead = %v, want < 1s", got)
	}
}

func TestPolicySchedules(t *testing.T) {
	exp := DefaultExponential()
	wantExp := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second}
	for i, w := range wantExp {
		if got := exp.Next(i); got != w {
			t.Errorf("exp.Next(%d) = %v, want %v", i, got, w)
		}
	}
	if got := exp.Next(30); got != 10*time.Minute {
		t.Errorf("exp cap = %v", got)
	}
	lin := Linear{Step: 2 * time.Second, Cap: 5 * time.Second}
	if lin.Next(0) != 2*time.Second || lin.Next(1) != 4*time.Second || lin.Next(5) != 5*time.Second {
		t.Error("linear schedule wrong")
	}
	c := Constant{Interval: 3 * time.Second}
	if c.Next(0) != 3*time.Second || c.Next(9) != 3*time.Second {
		t.Error("constant schedule wrong")
	}
	p := Push{}
	if p.Next(0) <= 0 {
		t.Error("push default latency must be positive")
	}
	for _, pol := range []Policy{exp, lin, c, p} {
		if pol.Name() == "" {
			t.Error("policy missing name")
		}
	}
}

func TestInvokeRetry(t *testing.T) {
	k := sim.NewKernel()
	e := NewEngine(k, Options{Policy: Constant{Interval: time.Second}, MaxStateRetries: 2})
	tp := newFake("transfer", k, time.Second)
	tp.failNext = 2
	e.RegisterProvider(tp)
	def := Definition{Name: "f", States: []StateDef{{Name: "T", Provider: "transfer"}}}
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

func TestActionFailureRetriesThenFails(t *testing.T) {
	k := sim.NewKernel()
	e := NewEngine(k, Options{Policy: Constant{Interval: time.Second}, MaxStateRetries: 1})
	e.RegisterProvider(newFailing("transfer", k, time.Second))
	def := Definition{Name: "f", States: []StateDef{{Name: "T", Provider: "transfer"}}}
	var final RunRecord
	e.Run("tok", def, nil, func(r RunRecord) { final = r })
	k.Run()
	if final.Status != StateFailed {
		t.Fatalf("status = %s", final.Status)
	}
	if !strings.Contains(final.Error, "failed after 2 attempts") {
		t.Errorf("error = %q", final.Error)
	}
}

func TestUnregisteredProviderRejected(t *testing.T) {
	k := sim.NewKernel()
	e := NewEngine(k, Options{})
	if _, err := e.Run("tok", threeStateDef(), nil, nil); err == nil {
		t.Error("run with unregistered providers accepted")
	}
}

func TestParamsSeeResultChain(t *testing.T) {
	k := sim.NewKernel()
	e := NewEngine(k, Options{Policy: Constant{Interval: 100 * time.Millisecond}})
	e.RegisterProvider(newFake("transfer", k, time.Second))
	e.RegisterProvider(newFake("compute", k, time.Second))
	var sawTransferResult bool
	def := Definition{
		Name: "chain",
		States: []StateDef{
			{Name: "Transfer", Provider: "transfer"},
			{Name: "Analysis", Provider: "compute", Params: func(input map[string]any, results map[string]map[string]any) map[string]any {
				if results["Transfer"]["from"] == "transfer" {
					sawTransferResult = true
				}
				return nil
			}},
		},
	}.Linear()
	e.Run("tok", def, nil, nil)
	k.Run()
	if !sawTransferResult {
		t.Error("second state did not see first state's result")
	}
}

func TestConcurrentRunsIndependent(t *testing.T) {
	k := sim.NewKernel()
	e := NewEngine(k, Options{Policy: Constant{Interval: time.Second}})
	e.RegisterProvider(newFake("transfer", k, 2*time.Second))
	def := Definition{Name: "f", States: []StateDef{{Name: "T", Provider: "transfer"}}}
	count := 0
	for i := 0; i < 10; i++ {
		e.Run("tok", def, map[string]any{"i": i}, func(RunRecord) { count++ })
	}
	k.Run()
	if count != 10 {
		t.Errorf("completed = %d", count)
	}
	runs := e.Runs()
	if len(runs) != 10 {
		t.Fatalf("records = %d", len(runs))
	}
	for _, r := range runs {
		if r.Status != StateSucceeded {
			t.Errorf("run %s status = %s", r.RunID, r.Status)
		}
	}
	if _, ok := e.Record(runs[3].RunID); !ok {
		t.Error("Record lookup failed")
	}
	if _, ok := e.Record("bogus"); ok {
		t.Error("bogus record found")
	}
}

func TestCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	store, err := NewCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: run a flow whose second state fails permanently; the first
	// state's completion is checkpointed.
	k := sim.NewKernel()
	e := NewEngine(k, Options{Policy: Constant{Interval: time.Second}, Checkpoints: store})
	tp := newFake("transfer", k, time.Second)
	e.RegisterProvider(tp)
	e.RegisterProvider(newFailing("compute", k, time.Second))
	def := Definition{Name: "cp-flow", States: []StateDef{
		{Name: "Transfer", Provider: "transfer"},
		{Name: "Analysis", Provider: "compute"},
	}}.Linear()
	var final RunRecord
	runID, _ := e.Run("tok", def, map[string]any{"file": "x"}, func(r RunRecord) { final = r })
	k.Run()
	if final.Status != StateFailed {
		t.Fatalf("phase 1 status = %s", final.Status)
	}
	pending, err := store.Pending()
	if err != nil || len(pending) != 1 || pending[0] != runID {
		t.Fatalf("pending = %v, %v", pending, err)
	}

	// Phase 2: a fresh engine (new "session") resumes the run with a
	// working compute provider; the transfer state must NOT re-run.
	k2 := sim.NewKernel()
	e2 := NewEngine(k2, Options{Policy: Constant{Interval: time.Second}, Checkpoints: store})
	tp2 := newFake("transfer", k2, time.Second)
	e2.RegisterProvider(tp2)
	e2.RegisterProvider(newFake("compute", k2, time.Second))
	var resumed RunRecord
	if err := e2.Resume("tok", def, runID, func(r RunRecord) { resumed = r }); err != nil {
		t.Fatal(err)
	}
	k2.Run()
	if resumed.Status != StateSucceeded {
		t.Fatalf("resumed status = %s (%s)", resumed.Status, resumed.Error)
	}
	if tp2.invokes != 0 {
		t.Errorf("transfer re-invoked %d times on resume", tp2.invokes)
	}
	// Checkpoint is cleared after success.
	pending, _ = store.Pending()
	if len(pending) != 0 {
		t.Errorf("pending after success = %v", pending)
	}
}

func TestResumeValidation(t *testing.T) {
	store, _ := NewCheckpointStore(t.TempDir())
	k := sim.NewKernel()
	e := NewEngine(k, Options{Checkpoints: store})
	def := Definition{Name: "f", States: []StateDef{{Name: "T", Provider: "transfer"}}}
	e.RegisterProvider(newFake("transfer", k, time.Second))
	if err := e.Resume("tok", def, "missing-run", nil); err == nil {
		t.Error("resume of unknown run accepted")
	}
	noStore := NewEngine(k, Options{})
	if err := noStore.Resume("tok", def, "x", nil); err == nil {
		t.Error("resume without store accepted")
	}
}

func TestLiveRuntimeFlow(t *testing.T) {
	rt := sim.NewLiveRuntime(2000)
	e := NewEngine(rt, Options{Policy: Constant{Interval: time.Second}, StateOverhead: time.Second})
	e.RegisterProvider(newFake("transfer", rt, 3*time.Second))
	def := Definition{Name: "live", States: []StateDef{{Name: "T", Provider: "transfer"}}}
	done := make(chan RunRecord, 1)
	e.Run("tok", def, nil, func(r RunRecord) { done <- r })
	select {
	case r := <-done:
		if r.Status != StateSucceeded {
			t.Errorf("live run status = %s (%s)", r.Status, r.Error)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("live run never finished")
	}
}
