package picoprobe

// Chaos soak (DESIGN.md §12): a multi-daemon wire federation is run
// under a seeded random fault schedule — daemon kills and restarts,
// read stalls, connection flaps, corrupted frames — and must still land
// every byte intact with bounded retry amplification. The companion
// heartbeat test pins the detection budget: a hung daemon must be
// declared Down and shed from placement before a single transfer
// attempt's timeout could even fire, so detection is always cheaper
// than discovery-by-timeout.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"picoprobe/internal/auth"
	"picoprobe/internal/facility"
	"picoprobe/internal/health"
	"picoprobe/internal/netfault"
	"picoprobe/internal/scheduler"
	"picoprobe/internal/sim"
	"picoprobe/internal/transfer"
	"picoprobe/internal/wire"
)

// chaosDaemon is one killable in-process facility daemon: Close() is
// the kill, restart() rebinds the same address over the same storage
// root — exactly the operational story of a crashed daemon coming back.
type chaosDaemon struct {
	addr string
	root string
	id   string
	iss  *auth.Issuer
	srv  *wire.Server
}

func (d *chaosDaemon) start(t *testing.T) {
	t.Helper()
	d.srv = &wire.Server{
		Root:     d.root,
		Facility: d.id,
		Verify: func(tok string) error {
			_, err := d.iss.Verify(tok, auth.ScopeTransfer)
			return err
		},
	}
	var ln net.Listener
	var err error
	deadline := time.Now().Add(10 * time.Second)
	for {
		if ln, err = net.Listen("tcp", d.addr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon %s could not rebind %s: %v", d.id, d.addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if d.addr == "" || d.addr == "127.0.0.1:0" {
		d.addr = ln.Addr().String()
	}
	go d.srv.Serve(ln)
}

func (d *chaosDaemon) kill() { d.srv.Close() }

// TestChaosSoak: N daemons, a campaign of transfers, and a seeded
// random storm of kills, stalls, flaps, and corrupted frames while the
// campaign runs. The contract under chaos is absolute: every task
// completes, every landed file is byte-identical to its source, every
// daemon-verified checksum matches a locally computed one, and the
// total bytes pushed onto the wire stay within a small constant factor
// of the payload (resume + chunk re-send keep retries cheap).
func TestChaosSoak(t *testing.T) {
	nDaemons, nTasks, nEvents := 3, 12, 10
	if testing.Short() {
		nDaemons, nTasks, nEvents = 2, 6, 4
	}
	const (
		chunkBytes = 16 << 10
		nChunks    = 8
		fileBytes  = nChunks * chunkBytes
	)

	iss := auth.NewIssuer([]byte("chaos-secret"), nil)
	token, err := iss.Issue("operator@chaos", []string{auth.ScopeTransfer}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}

	// Daemons, each with a client-side fault injector keyed by address so
	// the mover's dials route through the right chaos.
	daemons := make([]*chaosDaemon, nDaemons)
	faults := map[string]*netfault.Faults{}
	for i := range daemons {
		d := &chaosDaemon{addr: "127.0.0.1:0", root: t.TempDir(), id: fmt.Sprintf("chaos-%d", i), iss: iss}
		d.start(t)
		daemons[i] = d
		faults[d.addr] = &netfault.Faults{}
	}
	defer func() {
		for _, d := range daemons {
			d.kill()
		}
	}()
	routedDial := func(addr string) (net.Conn, error) {
		if f := faults[addr]; f != nil {
			return f.Dialer(nil)(addr)
		}
		return net.Dial("tcp", addr)
	}

	srcRoot := t.TempDir()
	mover := &transfer.ChunkMover{
		ChunkBytes:  chunkBytes,
		Streams:     2,
		ManifestDir: filepath.Join(srcRoot, ".manifests"),
		Land: &transfer.WireLanding{
			Token:           token,
			Dial:            routedDial,
			Timeout:         2 * time.Second,
			BreakerCooldown: 150 * time.Millisecond,
			RetryBackoff:    &wire.Backoff{Base: 15 * time.Millisecond, Max: 250 * time.Millisecond},
		},
	}
	defer mover.Close()
	svc := transfer.NewService(iss, mover, time.Now, transfer.Options{MaxAttempts: 40})
	if err := svc.RegisterEndpoint(transfer.Endpoint{ID: "src", Root: srcRoot}); err != nil {
		t.Fatal(err)
	}
	for i, d := range daemons {
		if err := svc.RegisterEndpoint(transfer.Endpoint{ID: fmt.Sprintf("fac-%d", i), Root: d.addr}); err != nil {
			t.Fatal(err)
		}
	}

	// Stage the campaign up front; tasks are SUBMITTED inside the storm
	// loop below so faults always land on transfers in flight. A small
	// read delay on every path stretches each transfer across several
	// fault events instead of letting loopback finish it instantly.
	type soakTask struct {
		id, rel string
		daemon  int
		data    []byte
	}
	tasks := make([]*soakTask, nTasks)
	var totalPayload int64
	for i := range tasks {
		rel := fmt.Sprintf("soak/task-%02d.emdg", i)
		data := make([]byte, fileBytes)
		deterministicFill(data, uint32(0xC4A05+i))
		if err := os.MkdirAll(filepath.Join(srcRoot, filepath.Dir(rel)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(srcRoot, rel), data, 0o644); err != nil {
			t.Fatal(err)
		}
		tasks[i] = &soakTask{rel: rel, daemon: i % nDaemons, data: data}
		totalPayload += fileBytes
	}
	submitted := 0
	submitNext := func(n int) {
		for ; n > 0 && submitted < nTasks; submitted++ {
			task := tasks[submitted]
			id, err := svc.Submit(token, "src", fmt.Sprintf("fac-%d", task.daemon), []transfer.FileSpec{{RelPath: task.rel}})
			if err != nil {
				t.Fatal(err)
			}
			task.id = id
			n--
		}
	}
	for _, f := range faults {
		f.SetReadDelay(2 * time.Millisecond)
	}

	// The storm: a seeded schedule so the fault sequence is reproducible
	// even though socket timing is not. Every fault self-clears — the
	// schedule always ends with the federation fully restored.
	rng := rand.New(rand.NewSource(0xC4A05))
	jitter := func(lo, hi int) time.Duration {
		return time.Duration(lo+rng.Intn(hi-lo)) * time.Millisecond
	}
	perEvent := (nTasks + nEvents - 1) / nEvents
	for ev := 0; ev < nEvents; ev++ {
		submitNext(perEvent)
		j := rng.Intn(nDaemons)
		d, f := daemons[j], faults[daemons[j].addr]
		switch rng.Intn(4) {
		case 0: // crash and restart on the same address and root
			d.kill()
			time.Sleep(jitter(50, 150))
			d.start(t)
		case 1: // reads freeze, then thaw
			f.SetStalled(true)
			time.Sleep(jitter(100, 250))
			f.SetStalled(false)
		case 2: // all connections severed, dials refused, then restored
			f.Flap()
			time.Sleep(jitter(50, 200))
			f.Restore()
		case 3: // the next few frames arrive damaged
			f.CorruptNextWrites(1 + rng.Int63n(3))
		}
		time.Sleep(jitter(40, 120))
	}
	submitNext(nTasks)
	for _, d := range daemons {
		f := faults[d.addr]
		f.SetStalled(false)
		f.SetReadDelay(0)
		f.Restore()
	}

	// Zero lost or corrupt data: completion, daemon-verified checksums
	// against locally computed digests, and byte-identical landed files.
	totalAttempts := 0
	for _, task := range tasks {
		view := waitForTransfer(t, svc, token, task.id, transfer.StatusSucceeded)
		totalAttempts += view.Attempts
		sum := sha256.Sum256(task.data)
		if got := view.Checksums[task.rel]; got != hex.EncodeToString(sum[:]) {
			t.Errorf("%s: daemon checksum %s, want %s", task.rel, got, hex.EncodeToString(sum[:]))
		}
		landed, err := os.ReadFile(filepath.Join(daemons[task.daemon].root, task.rel))
		if err != nil {
			t.Errorf("%s: landed file unreadable: %v", task.rel, err)
			continue
		}
		if !bytes.Equal(landed, task.data) {
			t.Errorf("%s: landed bytes differ from source", task.rel)
		}
		if view.Attempts > 40 {
			t.Errorf("%s: %d attempts exceeds the configured budget", task.rel, view.Attempts)
		}
	}

	// Bounded retry amplification: resume-from-manifest and single-chunk
	// re-send mean a retry re-ships only what was lost, so even a
	// hostile schedule keeps wire traffic within a small constant factor
	// of the payload.
	var wireBytes int64
	for _, f := range faults {
		wireBytes += f.BytesWritten()
	}
	if limit := 4 * totalPayload; wireBytes > limit {
		t.Errorf("wrote %d bytes to move %d payload bytes (amplification %.1fx, limit 4x)",
			wireBytes, totalPayload, float64(wireBytes)/float64(totalPayload))
	}
	var flaps, stalls, corrupted, refused int64
	for _, f := range faults {
		flaps += f.Flaps()
		stalls += f.StalledReads()
		corrupted += f.CorruptedWrites()
		refused += f.RefusedDials()
	}
	t.Logf("soak: %d tasks, %d attempts, %d events (%d flaps, %d stalled reads, %d corrupted writes, %d refused dials), %.2fx amplification",
		nTasks, totalAttempts, nEvents, flaps, stalls, corrupted, refused, float64(wireBytes)/float64(totalPayload))
}

// TestHeartbeatDetectsHungDaemonBeforeTimeout pins the detection
// budget: a daemon that accepts connections but never answers (the
// worst hang — no RST to fail fast on) must be declared Down by the
// heartbeat monitor, shed from fresh placement, and failed over for
// sticky runs, all in far less time than one transfer attempt's
// timeout. Detection must win the race against the first burned
// attempt, otherwise the health layer adds nothing over timeouts.
func TestHeartbeatDetectsHungDaemonBeforeTimeout(t *testing.T) {
	iss := auth.NewIssuer([]byte("chaos-secret"), nil)
	token, err := iss.Issue("operator@chaos", []string{auth.ScopeTransfer}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}

	rt := sim.NewLiveRuntime(1)
	reg := facility.NewRegistry(rt, 0)
	addrs := make([]string, 2)
	var serverFaults *netfault.Faults
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("hb-%d", i)
		srv := &wire.Server{
			Root:     t.TempDir(),
			Facility: id,
			Verify: func(tok string) error {
				_, err := iss.Verify(tok, auth.ScopeTransfer)
				return err
			},
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			// Server-side injector: when stalled, daemon 0 keeps accepting
			// but its reads hang — connections look alive, nothing answers.
			serverFaults = &netfault.Faults{}
			ln = serverFaults.Listener(ln)
		}
		go srv.Serve(ln)
		defer srv.Close()
		addrs[i] = ln.Addr().String()

		fac, err := facility.New(rt, facility.Config{ID: id, Name: id, Sched: scheduler.Config{Nodes: 2}})
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Add(fac); err != nil {
			t.Fatal(err)
		}
	}
	facs := reg.Facilities()

	mon := health.NewMonitor(rt, health.Config{Interval: 50 * time.Millisecond})
	for i, fac := range facs {
		// A check-sized timeout: the whole point is that probes are far
		// cheaper than transfer attempts.
		ht := &wire.HealthTarget{Client: &wire.Client{Addr: addrs[i], Token: token, Timeout: 250 * time.Millisecond}}
		defer ht.Close()
		if err := mon.Register(fac.PathID(), ht); err != nil {
			t.Fatal(err)
		}
	}
	reg.AttachHealth(mon)
	mon.Start(time.Time{})
	defer mon.Stop()

	waitState := func(pathID string, want health.State, deadline time.Duration) time.Duration {
		t.Helper()
		start := time.Now()
		for time.Since(start) < deadline {
			if st, ok := mon.Health(pathID); ok && st.State == want {
				return time.Since(start)
			}
			time.Sleep(5 * time.Millisecond)
		}
		st, _ := mon.Health(pathID)
		t.Fatalf("%s never reached %v (state %v after %d checks, %d fails)",
			pathID, want, st.State, st.Checks, st.Fails)
		return 0
	}

	// Healthy baseline: a sticky run placed on daemon 0 by constraint.
	if dec, err := reg.Place("run-sticky", facs[0].ID(), 1<<20); err != nil || dec.Facility.ID() != facs[0].ID() {
		t.Fatalf("baseline constraint placement: %+v, %v", dec, err)
	}

	// Hang daemon 0 and clock the detection.
	attemptTimeout := wire.DefaultTimeout
	serverFaults.SetStalled(true)
	detected := waitState(facs[0].PathID(), health.Down, attemptTimeout)
	if detected >= attemptTimeout {
		t.Fatalf("detection took %v, must beat the %v attempt timeout", detected, attemptTimeout)
	}
	t.Logf("hung daemon declared Down in %v (attempt timeout %v)", detected, attemptTimeout)

	// Detected outage sheds fresh placements...
	if dec, err := reg.Place("run-fresh", "", 1<<20); err != nil {
		t.Fatal(err)
	} else if dec.Facility.ID() != facs[1].ID() {
		t.Errorf("fresh placement landed on %s, want shed to %s", dec.Facility.ID(), facs[1].ID())
	}
	// ...and fails over sticky runs exactly like a planned outage.
	dec, err := reg.Place("run-sticky", "", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Reason != facility.ReasonFailoverUnhealthy || dec.Facility.ID() != facs[1].ID() || dec.From != facs[0].ID() {
		t.Errorf("sticky failover = %s on %s from %s, want %s on %s from %s",
			dec.Reason, dec.Facility.ID(), dec.From,
			facility.ReasonFailoverUnhealthy, facs[1].ID(), facs[0].ID())
	}

	// Recovery: the stall clears, consecutive successes rejoin the
	// daemon, and fresh runs may land there again.
	serverFaults.SetStalled(false)
	waitState(facs[0].PathID(), health.Up, 10*time.Second)
}
