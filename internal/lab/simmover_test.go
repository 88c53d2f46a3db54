package lab

import (
	"testing"
	"time"

	"picoprobe/internal/auth"
	"picoprobe/internal/netsim"
	"picoprobe/internal/sim"
	"picoprobe/internal/transfer"
)

// The SimMover tests that drive it through transfer.Service live in
// internal/transfer (simmover_test.go, an external test package); this
// one reads the mover's unexported resume state.

// TestSimMoverForgetsFailedTaskProgress: a permanently failed chunked
// task's resume state is dropped (the service's taskForgetter hook), so
// long fault-heavy experiments do not accumulate orphaned progress maps.
func TestSimMoverForgetsFailedTaskProgress(t *testing.T) {
	iss := auth.NewIssuer([]byte("test"), nil)
	tok, err := iss.Issue("user@anl.gov", []string{auth.ScopeTransfer}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	net := netsim.New(k)
	link := net.AddLink("switch", 1e9)
	mover := &SimMover{
		Kernel:   k,
		Network:  net,
		FailNext: 3, // exhausts MaxAttempts(3) before any chunk moves
		RouteFor: func(src, dst *transfer.Endpoint) Route {
			return Route{Path: []*netsim.Link{link}, StreamCap: 80e6, ChunkBytes: 10_000_000, Streams: 1}
		},
	}
	svc := transfer.NewService(iss, mover, k.Now, transfer.Options{MaxAttempts: 3})
	svc.RegisterEndpoint(transfer.Endpoint{ID: "a"})
	svc.RegisterEndpoint(transfer.Endpoint{ID: "b"})
	var id string
	k.Spawn("client", func(ctx sim.Context) {
		id, _ = svc.Submit(tok, "a", "b", []transfer.FileSpec{{RelPath: "f", Bytes: 40_000_000}})
	})
	k.Run()
	view, err := svc.Status(tok, id)
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != transfer.StatusFailed {
		t.Fatalf("status = %s, want FAILED", view.Status)
	}
	if n := len(mover.progress); n != 0 {
		t.Errorf("failed task left %d progress entries", n)
	}
}
