package core_test

import (
	"encoding/json"
	"testing"
	"time"

	"picoprobe/internal/auth"
	"picoprobe/internal/compute"
	"picoprobe/internal/core"
	"picoprobe/internal/flows"
	"picoprobe/internal/lab"
	"picoprobe/internal/netsim"
	"picoprobe/internal/scheduler"
	"picoprobe/internal/search"
	"picoprobe/internal/sim"
	"picoprobe/internal/transfer"
)

func simWorld(t *testing.T) (*sim.Kernel, *auth.Issuer, string) {
	t.Helper()
	k := sim.NewKernel()
	issuer := auth.NewIssuer([]byte("providers-test"), k.Now)
	token, err := issuer.Issue("t", []string{auth.ScopeTransfer, auth.ScopeCompute, auth.ScopeSearchIngest}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return k, issuer, token
}

func TestTransferProviderParamValidation(t *testing.T) {
	k, issuer, token := simWorld(t)
	svc := transfer.NewService(issuer, &transfer.ChunkMover{}, k.Now, transfer.Options{})
	p := core.NewTransferProvider(svc)
	if p.Name() != "transfer" {
		t.Error("name")
	}
	if _, err := p.Invoke(token, map[string]any{"src": "a"}); err == nil {
		t.Error("missing params accepted")
	}
	if _, err := p.Status(token, "nope"); err == nil {
		t.Error("unknown action accepted")
	}
}

func TestTransferProviderLifecycle(t *testing.T) {
	k, issuer, token := simWorld(t)
	// Use the sim mover so completion happens on the kernel.
	mover := newTestMover(k)
	svc := transfer.NewService(issuer, mover, k.Now, transfer.Options{})
	svc.RegisterEndpoint(transfer.Endpoint{ID: "src"})
	svc.RegisterEndpoint(transfer.Endpoint{ID: "dst"})
	p := core.NewTransferProvider(svc)

	var id string
	k.Spawn("client", func(ctx sim.Context) {
		var err error
		id, err = p.Invoke(token, map[string]any{
			"src": "src", "dst": "dst", "rel_path": "f.emdg", "bytes": float64(1_000_000),
		})
		if err != nil {
			t.Error(err)
			return
		}
		st, err := p.Status(token, id)
		if err != nil {
			t.Error(err)
		}
		if st.State != flows.StateActive {
			t.Errorf("fresh task state = %s", st.State)
		}
	})
	k.Run()
	st, err := p.Status(token, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != flows.StateSucceeded {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	if st.Result["bytes_moved"].(int64) != 1_000_000 {
		t.Errorf("result = %v", st.Result)
	}
	if !st.Completed.After(st.Started) {
		t.Error("timestamps not ordered")
	}
}

// newTestMover builds a SimMover over a tiny one-link network.
func newTestMover(k *sim.Kernel) *lab.SimMover {
	net := netsim.New(k)
	link := net.AddLink("l", 1e9)
	return &lab.SimMover{
		Kernel:  k,
		Network: net,
		RouteFor: func(src, dst *transfer.Endpoint) lab.Route {
			return lab.Route{Path: []*netsim.Link{link}}
		},
	}
}

func TestComputeProviderLifecycle(t *testing.T) {
	k, issuer, token := simWorld(t)
	reg := compute.NewRegistry()
	reg.Register(compute.Function{
		Name: "fn",
		Env:  "e",
		Cost: func(compute.Args) time.Duration { return time.Second },
	})
	sched := scheduler.New(k, scheduler.Config{Nodes: 1, ReuseNodes: true})
	svc := compute.NewService(issuer, reg, &lab.SchedExecutor{Sched: sched}, k.Now)
	p := core.NewComputeProvider(svc)
	if p.Name() != "compute" {
		t.Error("name")
	}
	if _, err := p.Invoke(token, map[string]any{}); err == nil {
		t.Error("missing function accepted")
	}
	var id string
	k.Spawn("client", func(ctx sim.Context) {
		id, _ = p.Invoke(token, map[string]any{"function": "fn", "args": map[string]any{"x": 1.0}})
	})
	k.Run()
	st, err := p.Status(token, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != flows.StateSucceeded {
		t.Fatalf("state = %s", st.State)
	}
	if _, ok := st.Result["node_id"]; !ok {
		t.Error("node_id missing from result")
	}
}

func TestSearchProviderIngestAndACL(t *testing.T) {
	k, issuer, token := simWorld(t)
	index := search.NewIndex()
	p := core.NewSearchProvider(k, issuer, index, 500*time.Millisecond)
	if p.Name() != "search" {
		t.Error("name")
	}
	entry := search.Entry{ID: "rec-1", Text: "ingested record", Date: time.Now()}
	raw, _ := json.Marshal(entry)

	var id string
	k.Spawn("client", func(ctx sim.Context) {
		var err error
		id, err = p.Invoke(token, map[string]any{"entry_json": string(raw)})
		if err != nil {
			t.Error(err)
		}
	})
	k.Run()
	st, err := p.Status(token, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != flows.StateSucceeded {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	if index.Count() != 1 {
		t.Errorf("index count = %d", index.Count())
	}
	// Service-side active time equals the modeled cost.
	if got := st.Completed.Sub(st.Started); got != 500*time.Millisecond {
		t.Errorf("ingest active = %v", got)
	}
	// Auth failures.
	bad, _ := issuer.Issue("x", []string{auth.ScopeTransfer}, time.Hour)
	if _, err := p.Invoke(bad, nil); err == nil {
		t.Error("wrong scope accepted")
	}
	if _, err := p.Status(bad, id); err == nil {
		t.Error("wrong-scope status accepted")
	}
	if _, err := p.Invoke(token, map[string]any{"entry_json": "{bad"}); err == nil {
		t.Error("corrupt entry accepted")
	}
	if _, err := p.Status(token, "ingest-999"); err == nil {
		t.Error("unknown action accepted")
	}
}

// slowCatalog stands in for a durable catalog whose ingest fsyncs.
type slowCatalog struct{ delay time.Duration }

func (c slowCatalog) IngestBatch([]search.Entry) error {
	time.Sleep(c.delay)
	return nil
}

// TestPublicationActiveWindowCoversIngest: on a live runtime the ingest
// itself takes wall time, and that time belongs inside the Publication
// state's active window, not after its Completed stamp.
func TestPublicationActiveWindowCoversIngest(t *testing.T) {
	const delay = 30 * time.Millisecond
	rt := sim.NewLiveRuntime(1)
	issuer := auth.NewIssuer([]byte("providers-test"), nil)
	token, err := issuer.Issue("t", []string{auth.ScopeSearchIngest}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	p := core.NewSearchProvider(rt, issuer, slowCatalog{delay}, 0)
	raw, _ := json.Marshal(search.Entry{ID: "rec-1", Text: "slow ingest", Date: time.Now()})
	id, err := p.Invoke(token, map[string]any{"entry_json": string(raw)})
	if err != nil {
		t.Fatal(err)
	}
	rt.Wait() // the publication's AfterFunc callback has run
	st, err := p.Status(token, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != flows.StateSucceeded {
		t.Fatalf("publication did not succeed: %s (%s)", st.State, st.Error)
	}
	if got := st.Completed.Sub(st.Started); got < delay {
		t.Errorf("publication active = %v, want >= %v (the ingest)", got, delay)
	}
}
