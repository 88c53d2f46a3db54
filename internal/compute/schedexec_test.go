package compute_test

import (
	"testing"
	"time"

	"picoprobe/internal/auth"
	"picoprobe/internal/compute"
	"picoprobe/internal/lab"
	"picoprobe/internal/scheduler"
	"picoprobe/internal/sim"
)

func computeSetup(t *testing.T) (*auth.Issuer, string, *compute.Registry) {
	t.Helper()
	iss := auth.NewIssuer([]byte("test"), nil)
	tok, err := iss.Issue("user", []string{auth.ScopeCompute}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return iss, tok, compute.NewRegistry()
}

func TestSchedExecutorCostModel(t *testing.T) {
	iss, tok, reg := computeSetup(t)
	reg.Register(compute.Function{
		Name: "analysis",
		Env:  "picoprobe",
		Cost: func(compute.Args) time.Duration { return 10 * time.Second },
	})
	k := sim.NewKernel()
	sched := scheduler.New(k, scheduler.Config{
		Nodes: 1, ProvisionDelay: 60 * time.Second, CacheWarmup: 30 * time.Second, ReuseNodes: true,
	})
	svc := compute.NewService(iss, reg, &lab.SchedExecutor{Sched: sched}, k.Now)
	var id1, id2 string
	k.Spawn("client", func(ctx sim.Context) {
		id1, _ = svc.Submit(tok, "analysis", nil)
	})
	k.Run()
	v1, _ := svc.Status(tok, id1)
	if v1.Status != compute.StatusSucceeded {
		t.Fatalf("task1 = %+v", v1)
	}
	if got := v1.Completed.Sub(v1.Submitted); got != 100*time.Second {
		t.Errorf("task1 elapsed = %v, want 100s (provision+warmup+run)", got)
	}
	if !v1.Provisioned || !v1.Warmed || v1.NodeID != 0 {
		t.Errorf("task1 = %+v", v1)
	}
	// Second task reuses the warm node.
	k.Spawn("client2", func(ctx sim.Context) {
		id2, _ = svc.Submit(tok, "analysis", nil)
	})
	k.Run()
	v2, _ := svc.Status(tok, id2)
	if got := v2.Completed.Sub(v2.Submitted); got != 10*time.Second {
		t.Errorf("task2 elapsed = %v, want 10s", got)
	}
	if v2.Provisioned || v2.Warmed {
		t.Errorf("task2 should reuse: %+v", v2)
	}
}

func TestSchedExecutorRunReal(t *testing.T) {
	iss, tok, reg := computeSetup(t)
	ran := false
	reg.Register(compute.Function{
		Name: "real",
		Cost: func(compute.Args) time.Duration { return time.Second },
		Run: func(compute.Args) (compute.Result, error) {
			ran = true
			return compute.Result{"ok": true}, nil
		},
	})
	k := sim.NewKernel()
	sched := scheduler.New(k, scheduler.Config{Nodes: 1, ReuseNodes: true})
	svc := compute.NewService(iss, reg, &lab.SchedExecutor{Sched: sched, RunReal: true}, k.Now)
	var id string
	k.Spawn("c", func(sim.Context) { id, _ = svc.Submit(tok, "real", nil) })
	k.Run()
	v, _ := svc.Status(tok, id)
	if !ran || v.Result["ok"] != true {
		t.Errorf("real run missing: ran=%v view=%+v", ran, v)
	}
}
