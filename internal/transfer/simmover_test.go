package transfer_test

import (
	"sync"
	"testing"
	"time"

	"picoprobe/internal/auth"
	"picoprobe/internal/lab"
	"picoprobe/internal/netsim"
	"picoprobe/internal/sim"
	"picoprobe/internal/transfer"
)

func issuerAndToken(t *testing.T) (*auth.Issuer, string) {
	t.Helper()
	iss := auth.NewIssuer([]byte("test"), nil)
	tok, err := iss.Issue("user@anl.gov", []string{auth.ScopeTransfer}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return iss, tok
}

// testTuner is a mutable RouteTuner: tests flip its answer mid-task (via
// kernel events) or between attempts and assert the mover tracks it.
type testTuner struct {
	mu      sync.Mutex
	streams int
	chunk   int64
}

func (tt *testTuner) set(streams int, chunk int64) {
	tt.mu.Lock()
	tt.streams, tt.chunk = streams, chunk
	tt.mu.Unlock()
}

func (tt *testTuner) Tune() (int, int64) {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	return tt.streams, tt.chunk
}

func TestSimMoverTimedTransfer(t *testing.T) {
	iss, tok := issuerAndToken(t)
	k := sim.NewKernel()
	net := netsim.New(k)
	link := net.AddLink("switch", 1e9)
	mover := &lab.SimMover{
		Kernel:  k,
		Network: net,
		RouteFor: func(src, dst *transfer.Endpoint) lab.Route {
			return lab.Route{Path: []*netsim.Link{link}, StreamCap: 80e6, SetupTime: 2 * time.Second}
		},
	}
	svc := transfer.NewService(iss, mover, k.Now, transfer.Options{})
	svc.RegisterEndpoint(transfer.Endpoint{ID: "instrument"})
	svc.RegisterEndpoint(transfer.Endpoint{ID: "eagle"})

	var id string
	k.Spawn("client", func(ctx sim.Context) {
		var err error
		id, err = svc.Submit(tok, "instrument", "eagle", []transfer.FileSpec{{RelPath: "hs.emdg", Bytes: 91_000_000}})
		if err != nil {
			t.Error(err)
		}
	})
	k.Run()
	if err := k.Err(); err != nil {
		t.Fatal(err)
	}
	view, err := svc.Status(tok, id)
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != transfer.StatusSucceeded {
		t.Fatalf("status = %s (%s)", view.Status, view.Error)
	}
	// 91 MB at 80 Mbit/s = 9.1s, plus 2s setup.
	got := view.Completed.Sub(view.Submitted)
	want := 2*time.Second + time.Duration(91_000_000*8/80e6*float64(time.Second))
	if diff := got - want; diff < -200*time.Millisecond || diff > 200*time.Millisecond {
		t.Errorf("sim transfer took %v, want ~%v", got, want)
	}
	if view.BytesMoved != 91_000_000 {
		t.Errorf("bytes moved = %d", view.BytesMoved)
	}
}

func TestSimMoverFaultInjectionRetries(t *testing.T) {
	iss, tok := issuerAndToken(t)
	k := sim.NewKernel()
	net := netsim.New(k)
	link := net.AddLink("switch", 1e9)
	mover := &lab.SimMover{
		Kernel:   k,
		Network:  net,
		FailNext: 1,
		RouteFor: func(src, dst *transfer.Endpoint) lab.Route {
			return lab.Route{Path: []*netsim.Link{link}}
		},
	}
	svc := transfer.NewService(iss, mover, k.Now, transfer.Options{MaxAttempts: 3})
	svc.RegisterEndpoint(transfer.Endpoint{ID: "a"})
	svc.RegisterEndpoint(transfer.Endpoint{ID: "b"})
	var id string
	k.Spawn("client", func(ctx sim.Context) {
		id, _ = svc.Submit(tok, "a", "b", []transfer.FileSpec{{RelPath: "f", Bytes: 1_000_000}})
	})
	k.Run()
	view, _ := svc.Status(tok, id)
	if view.Status != transfer.StatusSucceeded {
		t.Fatalf("status = %s after retry", view.Status)
	}
	if view.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", view.Attempts)
	}
}

func TestSimMoverExhaustsRetries(t *testing.T) {
	iss, tok := issuerAndToken(t)
	k := sim.NewKernel()
	net := netsim.New(k)
	link := net.AddLink("switch", 1e9)
	mover := &lab.SimMover{
		Kernel:   k,
		Network:  net,
		FailNext: 5,
		RouteFor: func(src, dst *transfer.Endpoint) lab.Route { return lab.Route{Path: []*netsim.Link{link}} },
	}
	svc := transfer.NewService(iss, mover, k.Now, transfer.Options{MaxAttempts: 2})
	svc.RegisterEndpoint(transfer.Endpoint{ID: "a"})
	svc.RegisterEndpoint(transfer.Endpoint{ID: "b"})
	var id string
	k.Spawn("client", func(ctx sim.Context) {
		id, _ = svc.Submit(tok, "a", "b", []transfer.FileSpec{{RelPath: "f", Bytes: 1000}})
	})
	k.Run()
	view, _ := svc.Status(tok, id)
	if view.Status != transfer.StatusFailed || view.Attempts != 2 {
		t.Errorf("status=%s attempts=%d, want FAILED/2", view.Status, view.Attempts)
	}
}

// --- simulated chunk engine ------------------------------------------

// simTransfer runs one simulated task through the given route and returns
// its final view.
func simTransfer(t *testing.T, route lab.Route, files []transfer.FileSpec, mutate func(*lab.SimMover)) transfer.TaskView {
	t.Helper()
	iss, tok := issuerAndToken(t)
	k := sim.NewKernel()
	net := netsim.New(k)
	link := net.AddLink("switch", 1e9)
	route.Path = []*netsim.Link{link}
	mover := &lab.SimMover{
		Kernel:   k,
		Network:  net,
		RouteFor: func(src, dst *transfer.Endpoint) lab.Route { return route },
	}
	if mutate != nil {
		mutate(mover)
	}
	svc := transfer.NewService(iss, mover, k.Now, transfer.Options{MaxAttempts: 3})
	svc.RegisterEndpoint(transfer.Endpoint{ID: "a"})
	svc.RegisterEndpoint(transfer.Endpoint{ID: "b"})
	var id string
	k.Spawn("client", func(ctx sim.Context) {
		var err error
		id, err = svc.Submit(tok, "a", "b", files)
		if err != nil {
			t.Error(err)
		}
	})
	k.Run()
	if err := k.Err(); err != nil {
		t.Fatal(err)
	}
	view, err := svc.Status(tok, id)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

// TestSimChunkedDegeneracy pins the sim-side degeneracy: chunk >= file
// size with a single stream produces the exact completion instant of the
// whole-file single-stream framing.
func TestSimChunkedDegeneracy(t *testing.T) {
	files := []transfer.FileSpec{{RelPath: "hs.emdg", Bytes: 91_000_000}}
	base := lab.Route{StreamCap: 80e6, SetupTime: 2 * time.Second}
	whole := simTransfer(t, base, files, nil)
	chunkRoute := base
	chunkRoute.ChunkBytes = 200_000_000 // > file size: one chunk
	chunkRoute.Streams = 1
	chunked := simTransfer(t, chunkRoute, files, nil)
	d1 := whole.Completed.Sub(whole.Submitted)
	d2 := chunked.Completed.Sub(chunked.Submitted)
	if d1 != d2 {
		t.Errorf("degenerate chunked transfer took %v, whole-file took %v (must be identical)", d2, d1)
	}
	if whole.Status != transfer.StatusSucceeded || chunked.Status != transfer.StatusSucceeded {
		t.Errorf("status = %s / %s", whole.Status, chunked.Status)
	}
	if chunked.BytesMoved != 91_000_000 {
		t.Errorf("bytes moved = %d", chunked.BytesMoved)
	}
}

// TestSimChunkedMultiStreamTiming checks the analytic chunk-window math:
// 80 MB in 10 MB chunks over 2 streams capped at 80 Mbit/s each is 4
// two-chunk rounds of 1 s — half the single-stream wire time.
func TestSimChunkedMultiStreamTiming(t *testing.T) {
	files := []transfer.FileSpec{{RelPath: "f", Bytes: 80_000_000}}
	view := simTransfer(t, lab.Route{
		StreamCap: 80e6, SetupTime: time.Second, ChunkBytes: 10_000_000, Streams: 2,
	}, files, nil)
	got := view.Completed.Sub(view.Submitted)
	want := time.Second + 4*time.Second // setup + 4 rounds of 2 parallel 1 s chunks
	if diff := got - want; diff < -100*time.Millisecond || diff > 100*time.Millisecond {
		t.Errorf("chunked multi-stream transfer took %v, want ~%v", got, want)
	}
	if view.ChunksTotal != 8 || view.ChunksMoved != 8 {
		t.Errorf("chunks = %d/%d, want 8/8", view.ChunksMoved, view.ChunksTotal)
	}
}

// TestSimChunkKillResume pins chunk-level resume in the simulator: the
// first attempt dies after 3 of 8 chunks, the retry re-moves only the
// remaining 5, and the completion instant reflects exactly that.
func TestSimChunkKillResume(t *testing.T) {
	files := []transfer.FileSpec{{RelPath: "f", Bytes: 80_000_000}}
	view := simTransfer(t, lab.Route{
		StreamCap: 80e6, SetupTime: 2 * time.Second, ChunkBytes: 10_000_000, Streams: 1,
	}, files, func(m *lab.SimMover) { m.FailAfterChunks = 3 })
	if view.Status != transfer.StatusSucceeded || view.Attempts != 2 {
		t.Fatalf("status=%s attempts=%d, want SUCCEEDED/2", view.Status, view.Attempts)
	}
	got := view.Completed.Sub(view.Submitted)
	// 2 s setup + 3 chunks, then 2 s setup + 5 resumed chunks (1 s each).
	want := 2*time.Second + 3*time.Second + 2*time.Second + 5*time.Second
	if diff := got - want; diff < -100*time.Millisecond || diff > 100*time.Millisecond {
		t.Errorf("kill/resume transfer took %v, want ~%v (resume must skip landed chunks)", got, want)
	}
	if view.ChunksSkipped != 3 || view.ChunksMoved != 8 {
		t.Errorf("skipped/moved = %d/%d, want 3/8", view.ChunksSkipped, view.ChunksMoved)
	}
	if view.BytesCopied != 80_000_000 {
		t.Errorf("bytes copied = %d, want 80000000 (each chunk crosses once)", view.BytesCopied)
	}
}

// TestSimChunkKillResumeMultiStream pins the attempt report's accounting
// when the kill fires with chunks still in flight: the aborting attempt
// drains them, counts them as moved, and the resumed attempt skips them
// — BytesCopied across attempts equals the file exactly, never less.
func TestSimChunkKillResumeMultiStream(t *testing.T) {
	files := []transfer.FileSpec{{RelPath: "f", Bytes: 80_000_000}}
	view := simTransfer(t, lab.Route{
		StreamCap: 80e6, ChunkBytes: 10_000_000, Streams: 2,
	}, files, func(m *lab.SimMover) { m.FailAfterChunks = 3 })
	if view.Status != transfer.StatusSucceeded || view.Attempts != 2 {
		t.Fatalf("status=%s attempts=%d, want SUCCEEDED/2", view.Status, view.Attempts)
	}
	// The kill fires on the 3rd completion while the 4th chunk is in
	// flight; the attempt drains it, so 4 chunks count as moved and the
	// retry skips exactly those 4.
	if view.ChunksMoved != 8 || view.ChunksSkipped != 4 {
		t.Errorf("moved/skipped = %d/%d, want 8/4 (in-flight chunk must be counted)",
			view.ChunksMoved, view.ChunksSkipped)
	}
	if view.BytesCopied != 80_000_000 {
		t.Errorf("bytes copied = %d, want 80000000 exactly", view.BytesCopied)
	}
}

// TestSimAdaptiveTunerFraming: a tuner supplies the framing the fixed
// flags would have — the timing must be exactly the fixed-flag timing
// (the analytic case from TestSimChunkedMultiStreamTiming).
func TestSimAdaptiveTunerFraming(t *testing.T) {
	tuner := &testTuner{streams: 2, chunk: 10_000_000}
	files := []transfer.FileSpec{{RelPath: "f", Bytes: 80_000_000}}
	view := simTransfer(t, lab.Route{
		StreamCap: 80e6, SetupTime: time.Second, Tuner: tuner,
	}, files, nil)
	got := view.Completed.Sub(view.Submitted)
	want := time.Second + 4*time.Second // setup + 4 rounds of 2 parallel 1 s chunks
	if diff := got - want; diff < -100*time.Millisecond || diff > 100*time.Millisecond {
		t.Errorf("tuned transfer took %v, want ~%v", got, want)
	}
	if view.ChunksTotal != 8 || view.ChunksMoved != 8 {
		t.Errorf("chunks = %d/%d, want 8/8", view.ChunksMoved, view.ChunksTotal)
	}
}

// TestSimAdaptiveNoOpinionMatchesFixed pins the "0 means no opinion"
// contract: a tuner that answers (0, 0) leaves the route's fixed framing
// in force, bit-identical to running without a tuner.
func TestSimAdaptiveNoOpinionMatchesFixed(t *testing.T) {
	files := []transfer.FileSpec{{RelPath: "f", Bytes: 80_000_000}}
	base := lab.Route{StreamCap: 80e6, SetupTime: time.Second, ChunkBytes: 10_000_000, Streams: 2}
	fixed := simTransfer(t, base, files, nil)
	tuned := base
	tuned.Tuner = &testTuner{} // no opinion
	adaptive := simTransfer(t, tuned, files, nil)
	d1 := fixed.Completed.Sub(fixed.Submitted)
	d2 := adaptive.Completed.Sub(adaptive.Submitted)
	if d1 != d2 {
		t.Errorf("no-opinion tuner changed timing: %v vs %v", d2, d1)
	}
}

// TestSimAdaptiveWindowWidensMidTask: the tuner's stream answer widens
// while a transfer is in flight and the launch loop picks it up between
// chunks. 8 chunks of 1 s at one stream until t=5.5 s, four streams
// after: chunks 0-4 drain sequentially (done t=2..6), then the remaining
// three launch together and land at t=7 — against 9 s if the window had
// stayed fixed.
func TestSimAdaptiveWindowWidensMidTask(t *testing.T) {
	tuner := &testTuner{streams: 1, chunk: 10_000_000}
	files := []transfer.FileSpec{{RelPath: "f", Bytes: 80_000_000}}
	view := simTransfer(t, lab.Route{
		StreamCap: 80e6, SetupTime: time.Second, Tuner: tuner,
	}, files, func(m *lab.SimMover) {
		m.Kernel.After(5500*time.Millisecond, func() { tuner.set(4, 10_000_000) })
	})
	got := view.Completed.Sub(view.Submitted)
	want := 7 * time.Second
	if diff := got - want; diff < -100*time.Millisecond || diff > 100*time.Millisecond {
		t.Errorf("mid-task widened transfer took %v, want ~%v (window must re-read the tuner)", got, want)
	}
	if view.ChunksMoved != 8 || view.Status != transfer.StatusSucceeded {
		t.Errorf("chunks moved = %d status = %s", view.ChunksMoved, view.Status)
	}
}

// TestSimAdaptiveRetryPinsChunkPlan: the first attempt plans 10 MB
// chunks and dies after 3; before the retry the tuner's chunk answer
// quadruples. The resume must replay the RECORDED plan — skip exactly
// the 3 landed chunks and move the remaining 5 at 10 MB — not re-plan at
// the new size (which would orphan the completed ordinals).
func TestSimAdaptiveRetryPinsChunkPlan(t *testing.T) {
	tuner := &testTuner{streams: 1, chunk: 10_000_000}
	files := []transfer.FileSpec{{RelPath: "f", Bytes: 80_000_000}}
	view := simTransfer(t, lab.Route{
		StreamCap: 80e6, SetupTime: 2 * time.Second, Tuner: tuner,
	}, files, func(m *lab.SimMover) {
		m.FailAfterChunks = 3
		// The first attempt fails at t=7 s; re-tune before the retry's
		// seeding call (post-setup, t=9 s).
		m.Kernel.After(8*time.Second, func() { tuner.set(1, 40_000_000) })
	})
	if view.Status != transfer.StatusSucceeded || view.Attempts != 2 {
		t.Fatalf("status=%s attempts=%d, want SUCCEEDED/2", view.Status, view.Attempts)
	}
	got := view.Completed.Sub(view.Submitted)
	want := 2*time.Second + 3*time.Second + 2*time.Second + 5*time.Second
	if diff := got - want; diff < -100*time.Millisecond || diff > 100*time.Millisecond {
		t.Errorf("retry took %v, want ~%v (resume must keep the recorded 10 MB plan)", got, want)
	}
	if view.ChunksSkipped != 3 || view.ChunksMoved != 8 {
		t.Errorf("skipped/moved = %d/%d, want 3/8", view.ChunksSkipped, view.ChunksMoved)
	}
	if view.BytesCopied != 80_000_000 {
		t.Errorf("bytes copied = %d, want 80000000", view.BytesCopied)
	}
}
