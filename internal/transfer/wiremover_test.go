package transfer

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"picoprobe/internal/netfault"
	"picoprobe/internal/wire"
)

// wireWorld is the wire-only fixture for what only the wire landing can
// do (reconnects, daemon restarts, auth): a "wire" world plus one
// mover the test can reach into.
type wireWorld struct {
	*world
	addr  string
	mover *ChunkMover
	svc   *Service
}

func newWireWorld(t *testing.T, mutate func(*ChunkMover), opts Options) *wireWorld {
	t.Helper()
	w := &wireWorld{world: newWorld(t, "wire")}
	w.addr = w.dstAddr
	w.mover = &ChunkMover{
		ChunkBytes:  1024,
		Streams:     1,
		ManifestDir: filepath.Join(w.srcRoot, ".manifests"),
		Land:        &WireLanding{Token: w.tok, Timeout: 10 * time.Second},
	}
	if mutate != nil {
		mutate(w.mover)
	}
	t.Cleanup(func() { w.mover.Close() })
	w.svc = w.serve(w.mover, opts)
	return w
}

func (w *wireWorld) stage(t *testing.T, rel string, n int, seed int64) []byte {
	t.Helper()
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	path := filepath.Join(w.srcRoot, rel)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWireMoverSeverAtNthChunkReconnects severs the connection at the
// Nth chunk write via netfault; the client reconnects on a fresh dial
// and re-sends only the severed chunk — verified chunks are never
// re-moved, and the transfer completes in the same attempt.
func TestWireMoverSeverAtNthChunkReconnects(t *testing.T) {
	// Single session, Streams 1: writes are Hello(1) Stat(2) Prepare(3)
	// chunks(4..7) Stat(8). Cutting write 6 kills the third chunk.
	faults := &netfault.Faults{CutAtWrite: 6}
	w := newWireWorld(t, func(m *ChunkMover) { m.Land.Dial = faults.Dialer(nil) }, Options{MaxAttempts: 2})
	data := w.stage(t, "x.bin", 4096, 3) // 4 chunks

	id, err := w.svc.Submit(w.tok, "src", "dst", []FileSpec{{RelPath: "x.bin"}})
	if err != nil {
		t.Fatal(err)
	}
	view := waitFor(t, w.svc, w.tok, id, StatusSucceeded)
	if view.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (reconnect heals within the attempt)", view.Attempts)
	}
	if d := faults.Dials(); d != 2 {
		t.Errorf("dials = %d, want 2 (one reconnect after the cut)", d)
	}
	// Every chunk crossed the wire exactly once: the cut cost a redial
	// and a re-send of the severed chunk only, not a re-move of the
	// chunks already verified on the daemon.
	if view.ChunksMoved != 4 || view.ChunksSkipped != 0 {
		t.Errorf("chunks moved/skipped = %d/%d, want 4/0", view.ChunksMoved, view.ChunksSkipped)
	}
	if view.BytesCopied != int64(len(data)) {
		t.Errorf("bytes copied = %d, want %d — the cut must not re-move verified chunks", view.BytesCopied, len(data))
	}
	got, err := os.ReadFile(filepath.Join(w.dstRoot, "x.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("resumed file corrupted")
	}
	sum := sha256.Sum256(data)
	if view.Checksums["x.bin"] != hex.EncodeToString(sum[:]) {
		t.Fatal("resumed checksum wrong")
	}
}

// TestWireMoverCorruptOnWireRetried: a chunk corrupted in flight is
// caught by the frame CRC, the damaged session is dropped, and the
// retry re-ships the chunk — the corrupted bytes never reach the file.
func TestWireMoverCorruptOnWireRetried(t *testing.T) {
	faults := &netfault.Faults{CorruptAtWrite: 5} // second chunk write
	w := newWireWorld(t, func(m *ChunkMover) { m.Land.Dial = faults.Dialer(nil) }, Options{MaxAttempts: 2})
	data := w.stage(t, "y.bin", 4096, 4)

	id, err := w.svc.Submit(w.tok, "src", "dst", []FileSpec{{RelPath: "y.bin"}})
	if err != nil {
		t.Fatal(err)
	}
	view := waitFor(t, w.svc, w.tok, id, StatusSucceeded)
	got, err := os.ReadFile(filepath.Join(w.dstRoot, "y.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("corrupted chunk reached the destination file")
	}
	sum := sha256.Sum256(data)
	if view.Checksums["y.bin"] != hex.EncodeToString(sum[:]) {
		t.Fatal("checksum wrong after in-flight corruption")
	}
	if view.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (corrupt frame fails the first)", view.Attempts)
	}
}

// TestWireMoverMergeDemotesMismatchedChunk drives the engine's merge
// step over the wire sink directly: when the daemon's merge rejects a
// chunk whose landed bytes do not match the recorded digest, the engine
// demotes exactly that chunk in its manifest — the damaged bytes are
// never folded into a completed file, and the retry re-ships only the
// demoted chunk (TestEngineDemotedChunkOnlyOneResent).
func TestWireMoverMergeDemotesMismatchedChunk(t *testing.T) {
	w := newWireWorld(t, nil, Options{})
	w.stage(t, "m.bin", 2048, 6) // 2 chunks

	// Land the file through the wire by hand.
	cl := w.mover.Land.client(w.addr)
	src, err := os.ReadFile(filepath.Join(w.srcRoot, "m.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Prepare("m.bin", 2048); err != nil {
		t.Fatal(err)
	}
	sums := make([]string, 2)
	for i := 0; i < 2; i++ {
		chunk := src[i*1024 : (i+1)*1024]
		h := sha256.Sum256(chunk)
		sums[i] = hex.EncodeToString(h[:])
		if err := cl.WriteChunk("m.bin", int64(i*1024), chunk, sums[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Build the manifest, recording a WRONG digest for chunk 1 — the
	// stand-in for bytes that rotted between landing and merge.
	files := []FileSpec{{RelPath: "m.bin", Bytes: 2048}}
	ms := w.mover.store()
	man, err := ms.load("merge-demote-test", files, 1024, false)
	if err != nil {
		t.Fatal(err)
	}
	spans := man.spans()
	ms.mark(man, spans[0], sums[0], true)
	wrong := strings.Repeat("ab", 32)
	ms.mark(man, spans[1], wrong, true)

	_, err = merge(wireSink{cl}, ms, man, 0)
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("merge err = %v, want checksum mismatch", err)
	}
	if _, done := ms.done(man, spans[1]); done {
		t.Fatal("mismatched chunk not demoted")
	}
	if _, done := ms.done(man, spans[0]); !done {
		t.Fatal("intact chunk demoted too")
	}
}

// TestWireMoverDaemonRestartMidTransfer stops the daemon after half the
// chunks landed, restarts a fresh server process-equivalent on the same
// storage root and address, and lets the retry finish: resume at chunk
// granularity across a full server restart, no daemon-side recovery.
func TestWireMoverDaemonRestartMidTransfer(t *testing.T) {
	w := newWireWorld(t, func(m *ChunkMover) { m.KillAfterChunks = 2 }, Options{MaxAttempts: 1})
	data := w.stage(t, "r.bin", 4096, 7) // 4 chunks

	id, err := w.svc.Submit(w.tok, "src", "dst", []FileSpec{{RelPath: "r.bin"}})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, w.svc, w.tok, id, StatusFailed)

	// Restart: tear the server down and bring a fresh one up on the SAME
	// address and root (a new process in spirit — wire.Server holds no
	// state beyond the files).
	if err := w.srv.Close(); err != nil {
		t.Fatal(err)
	}
	w.mover.Close() // drop pooled sessions to the dead server
	restarted := &wire.Server{Root: w.dstRoot, Facility: "test"}
	var ln net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ln, err = net.Listen("tcp", w.addr); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", w.addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	go restarted.Serve(ln)
	t.Cleanup(func() { restarted.Close() })

	w.mover.KillAfterChunks = 0 // the fault was one-shot; be explicit
	id2, err := w.svc.Submit(w.tok, "src", "dst", []FileSpec{{RelPath: "r.bin"}})
	if err != nil {
		t.Fatal(err)
	}
	view := waitFor(t, w.svc, w.tok, id2, StatusSucceeded)
	if view.ChunksSkipped != 2 || view.ChunksMoved != 2 {
		t.Errorf("chunks skipped/moved = %d/%d, want 2/2 across the restart", view.ChunksSkipped, view.ChunksMoved)
	}
	got, err := os.ReadFile(filepath.Join(w.dstRoot, "r.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("file corrupted across the restart")
	}
}

// TestWireMoverBadTokenRefused: a mover holding a token without the
// transfer scope is refused at Hello — no bytes move.
func TestWireMoverBadTokenRefused(t *testing.T) {
	w := newWireWorld(t, func(m *ChunkMover) { m.Land.Token = "garbage" }, Options{MaxAttempts: 1})
	w.stage(t, "t.bin", 1024, 9)
	id, err := w.svc.Submit(w.tok, "src", "dst", []FileSpec{{RelPath: "t.bin"}})
	if err != nil {
		t.Fatal(err)
	}
	view := waitFor(t, w.svc, w.tok, id, StatusFailed)
	if view.Error == "" {
		t.Fatal("auth failure carried no error")
	}
	if _, err := os.Stat(filepath.Join(w.dstRoot, "t.bin")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("bytes moved despite auth refusal")
	}
}
