package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"picoprobe/internal/auth"
	"picoprobe/internal/compute"
	"picoprobe/internal/netfault"
)

// startServer brings up a wire server on an ephemeral localhost port
// and returns a connected client. Token verification is on.
func startServer(t *testing.T, mutate func(*Server)) (*Server, *Client, string) {
	t.Helper()
	issuer := auth.NewIssuer([]byte("test-secret"), nil)
	token, err := issuer.Issue("op@test", []string{auth.ScopeTransfer}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{
		Root:     t.TempDir(),
		Facility: "test-facility",
		Verify: func(tok string) error {
			_, err := issuer.Verify(tok, auth.ScopeTransfer)
			return err
		},
	}
	if mutate != nil {
		mutate(srv)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl := &Client{Addr: addr, Token: token, Timeout: 10 * time.Second}
	t.Cleanup(func() { cl.Close() })
	return srv, cl, token
}

// hexSHA256 is the digest a Write must declare for body.
func hexSHA256(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// TestHelloGate: sessions without the right magic, version or token are
// rejected before any op; a good Hello succeeds.
func TestHelloGate(t *testing.T) {
	srv, cl, _ := startServer(t, nil)

	if status, _, err := cl.Status(0); err != nil {
		t.Fatalf("authenticated status: %v", err)
	} else if status.Facility != "test-facility" {
		t.Fatalf("facility %q", status.Facility)
	}

	bad := &Client{Addr: cl.Addr, Token: "not-a-token", Timeout: 5 * time.Second}
	defer bad.Close()
	if _, _, err := bad.Status(0); !IsRemoteCode(err, CodeAuth) {
		t.Fatalf("bad token: err = %v, want CodeAuth", err)
	}

	// Raw connection with wrong magic.
	conn, err := net.Dial("tcp", cl.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := WriteFrame(conn, MsgHello, Hello{Magic: "notpico", Version: ProtocolVersion}, nil); err != nil {
		t.Fatal(err)
	}
	typ, head, _, err := ReadFrame(conn, 0)
	if err != nil || typ != MsgError {
		t.Fatalf("wrong magic: typ=%d err=%v, want MsgError", typ, err)
	}
	if re := remoteErr(head); !IsRemoteCode(re, CodeAuth) {
		t.Fatalf("wrong magic: %v, want CodeAuth", re)
	}

	// First frame that is not a Hello.
	conn2, err := net.Dial("tcp", cl.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	conn2.SetDeadline(time.Now().Add(5 * time.Second))
	if err := WriteFrame(conn2, MsgStatus, Status{}, nil); err != nil {
		t.Fatal(err)
	}
	typ, head, _, err = ReadFrame(conn2, 0)
	if err != nil || typ != MsgError {
		t.Fatalf("status before hello: typ=%d err=%v, want MsgError", typ, err)
	}
	if re := remoteErr(head); !IsRemoteCode(re, CodeBadRequest) {
		t.Fatalf("status before hello: %v, want CodeBadRequest", re)
	}
	_ = srv
}

// TestFileOps walks the full chunk I/O surface over a real socket:
// stat of absent files, prepare, chunked writes with verification,
// ranged reads, range hashing and the verified merge.
func TestFileOps(t *testing.T) {
	srv, cl, _ := startServer(t, nil)

	sizes, err := cl.Stat([]string{"missing.bin", "also/missing.bin"})
	if err != nil {
		t.Fatal(err)
	}
	if sizes[0] != -1 || sizes[1] != -1 {
		t.Fatalf("absent sizes = %v, want -1s", sizes)
	}

	// Two chunks of known bytes.
	chunkA := bytes.Repeat([]byte{0x11}, 1024)
	chunkB := bytes.Repeat([]byte{0x22}, 512)
	whole := append(append([]byte{}, chunkA...), chunkB...)
	rel := "runs/data.bin"
	if err := cl.Prepare(rel, int64(len(whole))); err != nil {
		t.Fatal(err)
	}
	sumA := sha256.Sum256(chunkA)
	if err := cl.WriteChunk(rel, 0, chunkA, hex.EncodeToString(sumA[:])); err != nil {
		t.Fatal(err)
	}
	// The door: a Write that declares no digest is refused and its byte
	// range stays as Prepare left it.
	if err := cl.WriteChunk(rel, 1024, chunkB, ""); !IsRemoteCode(err, CodeBadRequest) {
		t.Fatalf("digest-less write: err = %v, want CodeBadRequest", err)
	}
	if landed, err := os.ReadFile(filepath.Join(srv.Root, rel)); err != nil || !bytes.Equal(landed[1024:], make([]byte, 512)) {
		t.Fatalf("digest-less write touched its destination range (err=%v)", err)
	}
	sumB := sha256.Sum256(chunkB)
	if err := cl.WriteChunk(rel, 1024, chunkB, hex.EncodeToString(sumB[:])); err != nil {
		t.Fatal(err)
	}

	sizes, err = cl.Stat([]string{rel})
	if err != nil {
		t.Fatal(err)
	}
	if sizes[0] != int64(len(whole)) {
		t.Fatalf("size %d, want %d", sizes[0], len(whole))
	}

	landed, err := os.ReadFile(filepath.Join(srv.Root, rel))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(landed, whole) {
		t.Fatal("read chunk mismatch")
	}

	present, hash, err := cl.HashChunk(rel, 1024, 512)
	if err != nil {
		t.Fatal(err)
	}
	if !present || hash != hex.EncodeToString(sumB[:]) {
		t.Fatalf("hash present=%v %s, want %s", present, hash, hex.EncodeToString(sumB[:]))
	}
	// A range past EOF is absent, not an error.
	if present, _, err := cl.HashChunk(rel, 1024, 1024); err != nil || present {
		t.Fatalf("past-EOF hash: present=%v err=%v", present, err)
	}
	if present, _, err := cl.HashChunk("missing.bin", 0, 16); err != nil || present {
		t.Fatalf("absent-file hash: present=%v err=%v", present, err)
	}

	// The door again: a merge plan with one empty digest is refused whole.
	if sum, err := cl.Merge(rel, []MergeChunk{
		{Off: 0, N: 1024, SHA256: hex.EncodeToString(sumA[:])},
		{Off: 1024, N: 512},
	}); !IsRemoteCode(err, CodeBadRequest) {
		t.Fatalf("merge with an empty chunk digest: sum=%q err=%v, want CodeBadRequest", sum, err)
	}
	wholeSum := sha256.Sum256(whole)
	mergeSum, err := cl.Merge(rel, []MergeChunk{
		{Off: 0, N: 1024, SHA256: hex.EncodeToString(sumA[:])},
		{Off: 1024, N: 512, SHA256: hex.EncodeToString(sumB[:])},
	})
	if err != nil {
		t.Fatal(err)
	}
	if mergeSum != hex.EncodeToString(wholeSum[:]) {
		t.Fatalf("merge digest %s, want %s", mergeSum, hex.EncodeToString(wholeSum[:]))
	}
	_ = srv
}

// TestWriteChecksumRejection: a chunk whose declared digest does not
// match its bytes is refused at the door with CodeChecksum, and nothing
// lands on disk.
func TestWriteChecksumRejection(t *testing.T) {
	srv, cl, _ := startServer(t, nil)
	rel := "x.bin"
	if err := cl.Prepare(rel, 8); err != nil {
		t.Fatal(err)
	}
	err := cl.WriteChunk(rel, 0, []byte("12345678"), "00000000deadbeef")
	if !IsRemoteCode(err, CodeChecksum) {
		t.Fatalf("err = %v, want CodeChecksum", err)
	}
	data, err := os.ReadFile(filepath.Join(srv.Root, rel))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, make([]byte, 8)) {
		t.Fatal("rejected chunk still landed on disk")
	}
	// The session survives the rejection: the same client op works next.
	sum := sha256.Sum256([]byte("12345678"))
	if err := cl.WriteChunk(rel, 0, []byte("12345678"), hex.EncodeToString(sum[:])); err != nil {
		t.Fatalf("session did not survive rejection: %v", err)
	}
}

// TestPathConfinement: relative-path escapes and absolute paths are
// CodeBadRequest on every file op; the daemon never serves outside Root.
func TestPathConfinement(t *testing.T) {
	_, cl, _ := startServer(t, nil)
	digest := hexSHA256([]byte("data"))
	for _, rel := range []string{"../escape.bin", "a/../../escape.bin", "/etc/passwd", ""} {
		if err := cl.Prepare(rel, 4); !IsRemoteCode(err, CodeBadRequest) {
			t.Fatalf("prepare %q: err = %v, want CodeBadRequest", rel, err)
		}
		if _, err := cl.Stat([]string{rel}); !IsRemoteCode(err, CodeBadRequest) {
			t.Fatalf("stat %q: err = %v, want CodeBadRequest", rel, err)
		}
		if err := cl.WriteChunk(rel, 0, []byte("data"), digest); !IsRemoteCode(err, CodeBadRequest) {
			t.Fatalf("write %q: err = %v, want CodeBadRequest", rel, err)
		}
		if _, _, err := cl.HashChunk(rel, 0, 4); !IsRemoteCode(err, CodeBadRequest) {
			t.Fatalf("hash %q: err = %v, want CodeBadRequest", rel, err)
		}
		if _, err := cl.Merge(rel, []MergeChunk{{Off: 0, N: 4, SHA256: digest}}); !IsRemoteCode(err, CodeBadRequest) {
			t.Fatalf("merge %q: err = %v, want CodeBadRequest", rel, err)
		}
	}
}

// TestMalformedHeaderIsBadRequest: every request of the conformance corpus
// (codec_test.go), sent with a header that is JSON of the wrong shape, is
// answered bad-request — which no retry can fix (Permanent) — and the
// session survives to serve the next op.
func TestMalformedHeaderIsBadRequest(t *testing.T) {
	_, cl, _ := startServer(t, nil)
	for _, m := range everyMessage() {
		if m.typ < MsgStat || m.typ%2 != 0 {
			continue // a response, or the Hello handshake
		}
		for _, head := range []string{
			`{"rel":5,"rels":5,"off":"y","task":5,"function":5,"fill":"y"}`, // fields of the wrong type
			`[1]`, // not an object at all
		} {
			_, err := cl.do(m.typ, json.RawMessage(head), m.body, m.typ+1, nil)
			if !IsRemoteCode(err, CodeBadRequest) || !Permanent(err) {
				t.Errorf("type %d with header %s: err = %v, want CodeBadRequest", m.typ, head, err)
			}
		}
	}
	if _, _, err := cl.Status(0); err != nil {
		t.Fatalf("session did not survive the malformed requests: %v", err)
	}
}

// TestConcurrentSessionsLandOwnBytes hammers the recycled request
// payloads: many sessions write chunk-sized bodies of distinct byte
// patterns through one server at once, and every file must hold exactly
// its own pattern — a payload is never handed to another session while a
// handler still reads it. Run under -race.
func TestConcurrentSessionsLandOwnBytes(t *testing.T) {
	srv, cl, token := startServer(t, nil)
	const sessions, rounds, size = 8, 6, 2 * pooledFrameMin
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A client of its own, so every writer holds a session of its own.
			c := &Client{Addr: cl.Addr, Token: token, Timeout: 10 * time.Second}
			defer c.Close()
			rel := fmt.Sprintf("hammer/%d.bin", i)
			if err := c.Prepare(rel, rounds*size); err != nil {
				t.Error(err)
				return
			}
			for r := 0; r < rounds; r++ {
				body := bytes.Repeat([]byte{byte(i*rounds + r + 1)}, size)
				sum := sha256.Sum256(body)
				if err := c.WriteChunk(rel, int64(r*size), body, hex.EncodeToString(sum[:])); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < sessions; i++ {
		got, err := os.ReadFile(filepath.Join(srv.Root, "hammer", fmt.Sprintf("%d.bin", i)))
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rounds; r++ {
			if want := bytes.Repeat([]byte{byte(i*rounds + r + 1)}, size); !bytes.Equal(got[r*size:(r+1)*size], want) {
				t.Errorf("session %d round %d landed bytes that are not its own", i, r)
			}
		}
	}
}

// TestReadChunkBodyIsCallerOwned: a body ReadFrame hands to its caller is
// never recycled — it is intact after 100 further exchanges, chunk-sized
// writes included, on a client of the same process.
func TestReadChunkBodyIsCallerOwned(t *testing.T) {
	_, cl, _ := startServer(t, nil)
	const size = 2 * pooledFrameMin
	want := bytes.Repeat([]byte{0xA5}, size)
	_, _, got, err := ReadFrame(bytes.NewReader(frameBytes(t, MsgWrite, Write{Rel: "own.bin"}, want)), 0)
	if err != nil {
		t.Fatal(err)
	}
	other := bytes.Repeat([]byte{0x3C}, size)
	otherSum := hexSHA256(other)
	for i := 0; i < 100; i++ {
		if err := cl.WriteChunk("other.bin", 0, other, otherSum); err != nil {
			t.Fatal(err)
		}
		if _, n, err := cl.Status(size); err != nil || n != size {
			t.Fatalf("status fill: n=%d err=%v", n, err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatal("a ReadChunk body changed under its caller")
	}
}

// TestWriteChunkSteadyStateAllocs is the allocation gate of the chunk
// path: after a warm-up call, shipping a 1 MiB chunk allocates under
// 64 KiB on both sides of the socket together (this process holds the
// daemon too) — no chunk-sized buffer is made per chunk.
func TestWriteChunkSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	_, cl, _ := startServer(t, nil)
	body := bytes.Repeat([]byte{7}, 1<<20)
	sum := sha256.Sum256(body)
	digest := hex.EncodeToString(sum[:])
	if err := cl.Prepare("gate.bin", int64(len(body))); err != nil {
		t.Fatal(err)
	}
	write := func() {
		if err := cl.WriteChunk("gate.bin", 0, body, digest); err != nil {
			t.Fatal(err)
		}
	}
	// As testing.AllocsPerRun does: one P, or a buffer parked in another
	// P's private pool slot reads as a miss; and no collection, which
	// would empty the pools.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	write()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		write()
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; perCall >= 64<<10 {
		t.Errorf("WriteChunk of 1 MiB allocates %d KiB per call in steady state, want < 64 KiB", perCall>>10)
	}
}

// TestMergeChunkMismatch: bytes corrupted after landing are caught by
// the merge's per-chunk re-verification, which names the exact chunk.
func TestMergeChunkMismatch(t *testing.T) {
	srv, cl, _ := startServer(t, nil)
	rel := "c.bin"
	chunk := bytes.Repeat([]byte{0x33}, 256)
	sum := sha256.Sum256(chunk)
	if err := cl.Prepare(rel, 512); err != nil {
		t.Fatal(err)
	}
	for _, off := range []int64{0, 256} {
		if err := cl.WriteChunk(rel, off, chunk, hex.EncodeToString(sum[:])); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt the second chunk on disk behind the server's back.
	f, err := os.OpenFile(filepath.Join(srv.Root, rel), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, 300); err != nil {
		t.Fatal(err)
	}
	f.Close()

	plan := []MergeChunk{
		{Off: 0, N: 256, SHA256: hex.EncodeToString(sum[:])},
		{Off: 256, N: 256, SHA256: hex.EncodeToString(sum[:])},
	}
	_, err = cl.Merge(rel, plan)
	if !IsRemoteCode(err, CodeChunkMismatch) {
		t.Fatalf("err = %v, want CodeChunkMismatch", err)
	}
	var re *RemoteError
	if !asRemote(err, &re) || re.Chunk != 1 {
		t.Fatalf("mismatch names chunk %d, want 1", re.Chunk)
	}

	// A non-contiguous plan and a short plan are structural errors.
	if _, err := cl.Merge(rel, []MergeChunk{{Off: 0, N: 256}, {Off: 300, N: 212}}); !IsRemoteCode(err, CodeBadRequest) {
		t.Fatalf("gapped plan: err = %v, want CodeBadRequest", err)
	}
	if _, err := cl.Merge(rel, []MergeChunk{{Off: 0, N: 256}}); !IsRemoteCode(err, CodeBadRequest) {
		t.Fatalf("short plan: err = %v, want CodeBadRequest", err)
	}
}

func asRemote(err error, re **RemoteError) bool {
	r, ok := err.(*RemoteError)
	if ok {
		*re = r
	}
	return ok
}

// TestDispatchAndJob: compute dispatch rides the same session; a
// relative "path" argument resolves under the facility root.
func TestDispatchAndJob(t *testing.T) {
	issuer := auth.NewIssuer([]byte("test-secret"), nil)
	registry := compute.NewRegistry()
	var gotPath string
	registry.Register(compute.Function{
		Name: "probe_fn",
		Run: func(args compute.Args) (compute.Result, error) {
			gotPath, _ = args["path"].(string)
			return compute.Result{"answer": float64(42)}, nil
		},
	})
	ctoken, err := issuer.Issue("facilityd@test", []string{auth.ScopeCompute}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	srv, cl, _ := startServer(t, func(s *Server) {
		s.Compute = compute.NewService(issuer, registry, compute.NewLocalExecutor(1, nil), time.Now)
		s.ComputeToken = ctoken
	})

	task, err := cl.Dispatch("probe_fn", map[string]any{"path": "runs/d.bin", "bytes": float64(123)})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	var job JobOK
	for {
		job, err = cl.Job(task)
		if err != nil {
			t.Fatal(err)
		}
		if job.Status == string(compute.StatusSucceeded) || job.Status == string(compute.StatusFailed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("task stuck in %s", job.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if job.Status != string(compute.StatusSucceeded) {
		t.Fatalf("status %s error %q", job.Status, job.Error)
	}
	if job.Result["answer"] != float64(42) {
		t.Fatalf("result %v", job.Result)
	}
	if want := filepath.Join(srv.Root, "runs", "d.bin"); gotPath != want {
		t.Fatalf("dispatched path %q, want %q (resolved under root)", gotPath, want)
	}
	if job.Completed == 0 || job.Started == 0 {
		t.Fatal("timestamps not carried over the wire")
	}

	if _, err := cl.Dispatch("no_such_fn", nil); !IsRemoteCode(err, CodeNotFound) {
		t.Fatalf("unknown function: err = %v, want CodeNotFound", err)
	}
	if _, err := cl.Job("no-such-task"); !IsRemoteCode(err, CodeNotFound) {
		t.Fatalf("unknown task: err = %v, want CodeNotFound", err)
	}
}

// TestStatusFill: the status endpoint returns exactly the requested
// fill bytes (the goodput probe's payload) and bounds the request.
func TestStatusFill(t *testing.T) {
	srv, cl, _ := startServer(t, nil)
	status, got, err := cl.Status(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if got != 64<<10 {
		t.Fatalf("fill %d, want %d", got, 64<<10)
	}
	if status.UnixNano == 0 {
		t.Fatal("status carries no clock")
	}
	if _, _, err := cl.Status(maxStatusFill + 1); !IsRemoteCode(err, CodeBadRequest) {
		t.Fatalf("oversized fill: err = %v, want CodeBadRequest", err)
	}
	// Jobs counter is process-lifetime; no compute here, so zero.
	if status.Jobs != 0 {
		t.Fatalf("jobs %d, want 0", status.Jobs)
	}
	_ = srv
}

// TestTornFrameDropsSessionOnly: a truncated frame kills that session
// loudly, but the server keeps serving — the next op on a fresh dial
// succeeds (the client's implicit reconnect).
func TestTornFrameDropsSessionOnly(t *testing.T) {
	_, cl, token := startServer(t, nil)

	faults := &netfault.Faults{TruncateAtWrite: 2} // Hello is write #1, first op is #2
	faulty := &Client{
		Addr:    cl.Addr,
		Token:   token,
		Timeout: 5 * time.Second,
		Dial:    faults.Dialer(nil),
	}
	defer faulty.Close()
	if _, _, err := faulty.Status(0); err == nil {
		t.Fatal("truncated frame did not fail the op")
	}
	// Same client, next op: fresh dial, clean session.
	if _, _, err := faulty.Status(0); err != nil {
		t.Fatalf("reconnect after torn frame: %v", err)
	}
}

// TestSessionReuse: ops on one client reuse the pooled session rather
// than redialing every time (dials counted via netfault's dialer).
func TestSessionReuse(t *testing.T) {
	_, cl, token := startServer(t, nil)
	faults := &netfault.Faults{}
	pooled := &Client{Addr: cl.Addr, Token: token, Timeout: 5 * time.Second, Dial: faults.Dialer(nil)}
	defer pooled.Close()
	for i := 0; i < 5; i++ {
		if _, _, err := pooled.Status(0); err != nil {
			t.Fatal(err)
		}
	}
	if d := faults.Dials(); d != 1 {
		t.Fatalf("5 sequential ops dialed %d times, want 1 (session pooling)", d)
	}
}

// TestServerCloseUnblocksSessions: Close with live sessions returns
// promptly and the listener stops accepting.
func TestServerCloseUnblocksSessions(t *testing.T) {
	srv, cl, _ := startServer(t, nil)
	if _, _, err := cl.Status(0); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a live session")
	}
	if _, err := net.DialTimeout("tcp", cl.Addr, 200*time.Millisecond); err == nil {
		// Accept may race briefly; a full op must still fail.
		if _, _, err := (&Client{Addr: cl.Addr, Timeout: time.Second}).Status(0); err == nil {
			t.Fatal("server still serving after Close")
		}
	}
}
