package picoprobe

// Wire transport, end to end (DESIGN.md §11): a real facility daemon
// process is killed with SIGKILL mid-transfer and a restarted daemon on
// the same port must let the client finish with O(remaining chunks)
// re-moved bytes and a verified whole-file checksum — the resume state
// lives entirely in the client's chunk manifest, the daemon carries
// nothing across the crash. TestWireCrossPathEquivalence is the other
// half of the wire gate: the same 24-file campaign through the
// in-process local landing and through a wire landing over localhost must
// produce identical checksums, chunk accounting, landed bytes, and
// catalog records (timings excluded).

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"picoprobe/internal/auth"
	"picoprobe/internal/core"
	"picoprobe/internal/lab"
	"picoprobe/internal/netfault"
	"picoprobe/internal/search"
	"picoprobe/internal/transfer"
	"picoprobe/internal/wire"
)

// Env vars that turn TestWireDaemonChildProcess into the crash victim:
// the address to serve on and the storage root to serve from.
const (
	wireChildAddrEnv = "PICOPROBE_WIRE_CHILD_ADDR"
	wireChildRootEnv = "PICOPROBE_WIRE_CHILD_ROOT"
)

// TestWireDaemonChildProcess is not a test: re-executed by
// TestWireDaemonKillNineResume with the env vars set, it serves a
// facility daemon until the parent kills it with SIGKILL. The bind
// retries because a restarted child can race the dying listener's
// socket.
func TestWireDaemonChildProcess(t *testing.T) {
	addr := os.Getenv(wireChildAddrEnv)
	if addr == "" {
		t.Skip("helper process for TestWireDaemonKillNineResume")
	}
	iss := auth.NewIssuer([]byte(core.WireSecretDefault), nil)
	srv := &wire.Server{
		Root:     os.Getenv(wireChildRootEnv),
		Facility: "e2e-victim",
		Verify: func(tok string) error {
			_, err := iss.Verify(tok, auth.ScopeTransfer)
			return err
		},
	}
	var ln net.Listener
	var err error
	deadline := time.Now().Add(10 * time.Second)
	for {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("child could not bind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	srv.Serve(ln) // blocks until SIGKILL
}

// startWireDaemon launches the child daemon process and waits until its
// status endpoint answers.
func startWireDaemon(t *testing.T, addr, root, token string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestWireDaemonChildProcess$", "-test.v")
	cmd.Env = append(os.Environ(), wireChildAddrEnv+"="+addr, wireChildRootEnv+"="+root)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	cl := &wire.Client{Addr: addr, Token: token, Timeout: 2 * time.Second}
	defer cl.Close()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, _, err := cl.Status(0); err == nil {
			return cmd
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("daemon on %s never became ready", addr)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestWireDaemonKillNineResume is the wire kill-and-resume acceptance
// gate: SIGKILL a real daemon process mid-transfer, restart it on the
// same port, and the client's retry must complete the transfer moving
// only the chunks the first attempt did not land — O(remaining chunks)
// re-moved bytes, whole-file checksum verified by the daemon's merge.
func TestWireDaemonKillNineResume(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("SIGKILL semantics are POSIX-specific")
	}
	iss := auth.NewIssuer([]byte(core.WireSecretDefault), nil)
	token, err := iss.Issue("operator@picoprobe", []string{auth.ScopeTransfer}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}

	// Reserve a port for the daemon so the restart lands on the same
	// address the manifest-side client keeps dialing.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	srcRoot, dstRoot := t.TempDir(), t.TempDir()
	const (
		rel        = "campaign/victim.emdg"
		chunkBytes = 64 << 10
		nChunks    = 128
	)
	data := make([]byte, nChunks*chunkBytes)
	deterministicFill(data, 0xE2E)
	if err := os.MkdirAll(filepath.Join(srcRoot, filepath.Dir(rel)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(srcRoot, rel), data, 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := startWireDaemon(t, addr, dstRoot, token)
	killed := false
	defer func() {
		if !killed {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	// The fault dialer is only a window: its shared write counter tells
	// the parent how far the transfer got, and a small read delay
	// stretches the transfer so the kill reliably lands mid-flight.
	faults := &netfault.Faults{}
	faults.SetReadDelay(2 * time.Millisecond)
	mover := &transfer.ChunkMover{
		ChunkBytes:  chunkBytes,
		Streams:     2,
		ManifestDir: filepath.Join(srcRoot, ".manifests"),
		Land:        &transfer.WireLanding{Token: token, Dial: faults.Dialer(nil), Timeout: 20 * time.Second},
	}
	defer mover.Close()
	svc := transfer.NewService(iss, mover, time.Now, transfer.Options{MaxAttempts: 1})
	svc.RegisterEndpoint(transfer.Endpoint{ID: "src", Root: srcRoot})
	svc.RegisterEndpoint(transfer.Endpoint{ID: "dst", Root: addr})

	id1, err := svc.Submit(token, "src", "dst", []transfer.FileSpec{{RelPath: rel}})
	if err != nil {
		t.Fatal(err)
	}

	// Kill -9 once a healthy fraction of the chunks crossed the wire but
	// well before all of them could have.
	deadline := time.Now().Add(30 * time.Second)
	for faults.Writes() < 40 {
		if time.Now().After(deadline) {
			t.Fatal("transfer never got far enough to kill")
		}
		time.Sleep(time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no daemon shutdown path runs
		t.Fatal(err)
	}
	cmd.Wait()
	killed = true

	v1 := waitForTransfer(t, svc, token, id1, transfer.StatusFailed)
	if v1.ChunksMoved == 0 || v1.ChunksMoved >= nChunks {
		t.Fatalf("first attempt moved %d of %d chunks — the kill did not land mid-transfer", v1.ChunksMoved, nChunks)
	}
	t.Logf("killed daemon after %d/%d chunks landed", v1.ChunksMoved, nChunks)

	// Restart the daemon on the same port — fresh process, no state
	// beyond the partially-landed file — and let the client finish.
	faults.SetReadDelay(0)
	cmd2 := startWireDaemon(t, addr, dstRoot, token)
	defer func() {
		cmd2.Process.Kill()
		cmd2.Wait()
	}()

	id2, err := svc.Submit(token, "src", "dst", []transfer.FileSpec{{RelPath: rel}})
	if err != nil {
		t.Fatal(err)
	}
	v2 := waitForTransfer(t, svc, token, id2, transfer.StatusSucceeded)

	// O(remaining chunks): every chunk the first attempt landed is
	// hash-verified remotely and skipped; only the rest cross the wire.
	if v2.ChunksSkipped+v2.ChunksMoved != nChunks {
		t.Errorf("resume skipped %d + moved %d != %d chunks", v2.ChunksSkipped, v2.ChunksMoved, nChunks)
	}
	if v2.ChunksSkipped < v1.ChunksMoved {
		t.Errorf("resume skipped %d chunks, want at least the %d the first attempt landed", v2.ChunksSkipped, v1.ChunksMoved)
	}
	if want := int64(v2.ChunksMoved) * chunkBytes; v2.BytesCopied != want {
		t.Errorf("resume copied %d bytes, want %d (%d chunks) — re-moved more than the remainder", v2.BytesCopied, want, v2.ChunksMoved)
	}

	// The whole-file checksum is the daemon merge's digest of what is
	// actually on its disk — and it must match the source bytes.
	sum := sha256.Sum256(data)
	if v2.Checksums[rel] != hex.EncodeToString(sum[:]) {
		t.Errorf("merged checksum %s, want %s", v2.Checksums[rel], hex.EncodeToString(sum[:]))
	}
	landed, err := os.ReadFile(filepath.Join(dstRoot, rel))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(landed, data) {
		t.Error("file corrupted across the kill")
	}
}

// deterministicFill fills buf with a cheap seeded pattern (chunks must
// all differ so a misplaced chunk cannot alias a correct one).
func deterministicFill(buf []byte, seed uint32) {
	x := seed
	for i := range buf {
		x = x*1664525 + 1013904223
		buf[i] = byte(x >> 24)
	}
}

func waitForTransfer(t *testing.T, svc *transfer.Service, token, id string, want transfer.TaskStatus) transfer.TaskView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		view, err := svc.Status(token, id)
		if err != nil {
			t.Fatal(err)
		}
		if view.Status == want {
			return view
		}
		if view.Status != transfer.StatusActive {
			t.Fatalf("task %s reached %s (%s), want %s", id, view.Status, view.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("task %s never reached %s", id, want)
	return transfer.TaskView{}
}

// TestWireCrossPathEquivalence runs the same 24-file campaign through
// the in-process live deployment and through a wire deployment backed
// by a facility daemon on localhost, then requires the two paths to be
// indistinguishable: identical whole-file checksums, identical chunk
// accounting, byte-identical landed files, and identical catalog
// records (timings excluded) — the wire changes where the code runs,
// never what it produces.
func TestWireCrossPathEquivalence(t *testing.T) {
	const (
		nFiles     = 24
		chunkBytes = 64 << 10
		streams    = 2
	)

	// The in-process path.
	liveDir := t.TempDir()
	liveDep, err := core.NewLiveDeployment(core.LiveOptions{
		InstrumentRoot:     filepath.Join(liveDir, "instrument"),
		EagleRoot:          filepath.Join(liveDir, "eagle"),
		OutDir:             filepath.Join(liveDir, "out"),
		TransferChunkBytes: chunkBytes,
		TransferStreams:    streams,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer liveDep.Close()

	// The wire path: a daemon with the same analysis pool, reached over
	// a real socket.
	wireDir := t.TempDir()
	daemonRoot := filepath.Join(wireDir, "facility")
	srv, err := core.NewFacilityDaemon("equiv", daemonRoot, filepath.Join(daemonRoot, "analysis-out"), core.WireSecretDefault, 2)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	wireDep, err := core.NewWireDeployment(core.WireOptions{
		InstrumentRoot:     filepath.Join(wireDir, "instrument"),
		DaemonAddr:         addr,
		TransferChunkBytes: chunkBytes,
		TransferStreams:    streams,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer wireDep.Close()

	// Stage the identical campaign in both instrument roots.
	rels := make([]string, nFiles)
	localSums := map[string]string{}
	for i := range rels {
		rel := fmt.Sprintf("eq-%02d.emdg", i)
		rels[i] = rel
		var staged []byte
		for _, root := range []string{liveDep.Options.InstrumentRoot, wireDep.Options.InstrumentRoot} {
			if err := lab.WriteSyntheticAcquisition(filepath.Join(root, rel), "hyperspectral", i); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(filepath.Join(root, rel))
			if err != nil {
				t.Fatal(err)
			}
			if staged == nil {
				staged = b
			} else if !bytes.Equal(staged, b) {
				t.Fatalf("synthetic staging of %s is not deterministic", rel)
			}
		}
		sum := sha256.Sum256(staged)
		localSums[rel] = hex.EncodeToString(sum[:])
	}

	if _, err := liveDep.RunBatch("hyperspectral", rels); err != nil {
		t.Fatal(err)
	}
	if _, err := wireDep.RunBatch("hyperspectral", rels); err != nil {
		t.Fatal(err)
	}

	// One transfer task each; their accounting and checksums must agree
	// with each other and with the locally computed digests.
	liveTasks, wireTasks := liveDep.Transfer.Tasks(), wireDep.Transfer.Tasks()
	if len(liveTasks) != 1 || len(wireTasks) != 1 {
		t.Fatalf("tasks live/wire = %d/%d, want 1/1", len(liveTasks), len(wireTasks))
	}
	lt, wt := liveTasks[0], wireTasks[0]
	if lt.ChunksTotal != wt.ChunksTotal || lt.ChunksMoved != wt.ChunksMoved || lt.ChunksSkipped != wt.ChunksSkipped {
		t.Errorf("chunk accounting differs: live %d/%d/%d, wire %d/%d/%d",
			lt.ChunksTotal, lt.ChunksMoved, lt.ChunksSkipped, wt.ChunksTotal, wt.ChunksMoved, wt.ChunksSkipped)
	}
	if lt.BytesMoved != wt.BytesMoved || lt.BytesCopied != wt.BytesCopied {
		t.Errorf("byte accounting differs: live %d/%d, wire %d/%d", lt.BytesMoved, lt.BytesCopied, wt.BytesMoved, wt.BytesCopied)
	}
	if !reflect.DeepEqual(lt.Checksums, wt.Checksums) {
		t.Errorf("checksum maps differ:\nlive: %v\nwire: %v", lt.Checksums, wt.Checksums)
	}
	for rel, want := range localSums {
		if lt.Checksums[rel] != want {
			t.Errorf("%s: reported checksum %s, want locally computed %s", rel, lt.Checksums[rel], want)
		}
	}

	// Landed bytes are identical across paths.
	for _, rel := range rels {
		liveBytes, err := os.ReadFile(filepath.Join(liveDep.Options.EagleRoot, rel))
		if err != nil {
			t.Fatal(err)
		}
		wireBytes, err := os.ReadFile(filepath.Join(daemonRoot, rel))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(liveBytes, wireBytes) {
			t.Errorf("%s landed differently across paths", rel)
		}
	}

	// The catalogs carry identical records: same IDs, and per ID the
	// same text, fields, numbers, date, and payload. (Task timing fields
	// are the only cross-path difference by design, and they never reach
	// the catalog.)
	query := search.Query{Limit: nFiles * 2}
	liveHits, liveTotal, err := liveDep.Index.Search(query)
	if err != nil {
		t.Fatal(err)
	}
	wireHits, wireTotal, err := wireDep.Index.Search(query)
	if err != nil {
		t.Fatal(err)
	}
	if liveTotal != nFiles || wireTotal != nFiles {
		t.Fatalf("catalog totals live/wire = %d/%d, want %d/%d", liveTotal, wireTotal, nFiles, nFiles)
	}
	wireByID := map[string]search.Entry{}
	for _, h := range wireHits {
		wireByID[h.Entry.ID] = h.Entry
	}
	for _, h := range liveHits {
		le := h.Entry
		we, ok := wireByID[le.ID]
		if !ok {
			t.Errorf("record %s in live catalog only", le.ID)
			continue
		}
		if le.Text != we.Text {
			t.Errorf("%s: text differs:\nlive: %s\nwire: %s", le.ID, le.Text, we.Text)
		}
		if !reflect.DeepEqual(le.Fields, we.Fields) {
			t.Errorf("%s: fields differ:\nlive: %v\nwire: %v", le.ID, le.Fields, we.Fields)
		}
		if !reflect.DeepEqual(le.Numbers, we.Numbers) {
			t.Errorf("%s: numbers differ:\nlive: %v\nwire: %v", le.ID, le.Numbers, we.Numbers)
		}
		if !le.Date.Equal(we.Date) {
			t.Errorf("%s: date differs: live %v, wire %v", le.ID, le.Date, we.Date)
		}
		if !bytes.Equal(le.Payload, we.Payload) {
			t.Errorf("%s: payload differs:\nlive: %.300s\nwire: %.300s", le.ID, le.Payload, we.Payload)
		}
	}
}
