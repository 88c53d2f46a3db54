package core_test

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"picoprobe/internal/compute"
	"picoprobe/internal/core"
	"picoprobe/internal/flows"
	"picoprobe/internal/lab"
	"picoprobe/internal/scheduler"
	"picoprobe/internal/search"
	"picoprobe/internal/sim"
)

// TestPublicationWatchFiresPerAction: the publication provider signals
// every action exactly once, from the flush that completes it — also
// when one flush completes several — and at once for a completed one.
func TestPublicationWatchFiresPerAction(t *testing.T) {
	k, issuer, token := simWorld(t)
	p, stats := core.NewSearchProviderWithStats(k, issuer, search.NewIndex(), 500*time.Millisecond)
	w := p.(flows.Watcher)
	fired := map[string]int{}
	watch := func(id string) {
		ok := w.Watch(id, func() {
			fired[id]++
			if st, _ := p.Status(token, id); st.State != flows.StateSucceeded {
				t.Errorf("%s signalled while %s", id, st.State)
			}
		})
		if !ok {
			t.Errorf("%s: publication provider cannot signal", id)
		}
	}
	invoke := func(n int) string {
		raw, _ := json.Marshal(search.Entry{ID: fmt.Sprintf("rec-%d", n), Text: "watched", Date: time.Now()})
		id, err := p.Invoke(token, map[string]any{"entry_json": string(raw)})
		if err != nil {
			t.Fatal(err)
		}
		watch(id)
		return id
	}
	var ids []string
	k.Spawn("client", func(ctx sim.Context) {
		ids = append(ids, invoke(1), invoke(2)) // due together: one flush
		ctx.Sleep(time.Second)
		ids = append(ids, invoke(3))
	})
	k.Run()
	if got := stats().Batches; got != 2 {
		t.Errorf("batches = %d, want 2 (the first flush completes two actions)", got)
	}
	for _, id := range ids {
		if fired[id] != 1 {
			t.Errorf("%s fired %d times, want 1", id, fired[id])
		}
	}
	watch(ids[0]) // completed: at once
	if fired[ids[0]] != 2 {
		t.Errorf("watch of a completed action did not fire at once")
	}
}

// pollOnlyBackend is a compute backend with Submit and Status and no
// completion signal.
type pollOnlyBackend struct{ svc *compute.Service }

func (b pollOnlyBackend) Submit(token, fn string, args compute.Args) (string, error) {
	return b.svc.Submit(token, fn, args)
}

func (b pollOnlyBackend) Status(token, id string) (compute.TaskView, error) {
	return b.svc.Status(token, id)
}

// TestComputeWithoutWatchIsPolled: a Push engine over a compute backend
// that cannot signal still completes, by polling at the
// Push latency; the in-process service is signalled instead.
func TestComputeWithoutWatchIsPolled(t *testing.T) {
	for _, tc := range []struct {
		name     string
		backend  func(*compute.Service) core.ComputeBackend
		signals  int64
		detected time.Duration // after the action's completion
	}{
		{"in-process", func(s *compute.Service) core.ComputeBackend { return s }, 1, 0},
		{"poll-only", func(s *compute.Service) core.ComputeBackend { return pollOnlyBackend{s} }, 0, 20 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, issuer, token := simWorld(t)
			reg := compute.NewRegistry()
			reg.Register(compute.Function{Name: "fn", Env: "e",
				Cost: func(compute.Args) time.Duration { return 990 * time.Millisecond }})
			sched := scheduler.New(k, scheduler.Config{Nodes: 1, ReuseNodes: true})
			svc := compute.NewService(issuer, reg, &lab.SchedExecutor{Sched: sched}, k.Now)
			e := flows.NewEngine(k, flows.Options{Policy: flows.Push{Latency: 20 * time.Millisecond}})
			e.RegisterProvider(core.NewComputeProvider(tc.backend(svc)))
			def := flows.Definition{Name: "one", States: []flows.StateDef{{
				Name: "Analysis", Provider: "compute",
				Params: func(map[string]any, flows.Results) map[string]any {
					return flows.Pack(core.ComputeParams{Function: "fn"})
				},
			}}}
			var final flows.RunRecord
			if _, err := e.Run(token, def, nil, func(r flows.RunRecord) { final = r }); err != nil {
				t.Fatal(err)
			}
			k.Run()
			if final.Status != flows.StateSucceeded {
				t.Fatalf("run = %s (%s)", final.Status, final.Error)
			}
			st := final.States[0]
			if lag := st.DetectedAt.Sub(st.Completed); lag < 0 || lag > tc.detected {
				t.Errorf("detected %v after completion, want within %v", lag, tc.detected)
			}
			if got := e.PollStats().Signals; got != tc.signals {
				t.Errorf("signals = %d, want %d", got, tc.signals)
			}
		})
	}
}
