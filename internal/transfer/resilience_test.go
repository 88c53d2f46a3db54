package transfer

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"picoprobe/internal/wire"
)

// countingMover fails every attempt with a fixed error, counting calls.
type countingMover struct {
	err      error
	attempts atomic.Int64
}

func (m *countingMover) Move(task *Task, src, dst *Endpoint, done func(Report, error)) {
	m.attempts.Add(1)
	go done(Report{}, m.err)
}

func newFailingService(t *testing.T, moverErr error, opts Options) (*Service, string, *countingMover) {
	t.Helper()
	iss, tok := issuerAndToken(t)
	mover := &countingMover{err: moverErr}
	svc := NewService(iss, mover, time.Now, opts)
	svc.RegisterEndpoint(Endpoint{ID: "src", Root: t.TempDir()})
	svc.RegisterEndpoint(Endpoint{ID: "dst", Root: t.TempDir()})
	return svc, tok, mover
}

// TestPermanentErrorFailsFast: a typed permanent remote error (auth,
// bad request) burns no retries — one attempt, immediate failure.
func TestPermanentErrorFailsFast(t *testing.T) {
	svc, tok, mover := newFailingService(t,
		&wire.RemoteError{Code: wire.CodeAuth, Msg: "bad token"}, Options{MaxAttempts: 5})
	id, err := svc.Submit(tok, "src", "dst", []FileSpec{{RelPath: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	view := waitFor(t, svc, tok, id, StatusFailed)
	if view.Attempts != 1 {
		t.Errorf("attempts = %d, want 1 (permanent error must not retry)", view.Attempts)
	}
	if mover.attempts.Load() != 1 {
		t.Errorf("mover called %d times, want 1", mover.attempts.Load())
	}
}

// TestRetryableErrorRetriesToMaxAttempts: anything not classified
// permanent keeps the historical retry-to-exhaustion behavior.
func TestRetryableErrorRetriesToMaxAttempts(t *testing.T) {
	svc, tok, mover := newFailingService(t,
		&wire.RemoteError{Code: wire.CodeIO, Msg: "disk on fire"}, Options{MaxAttempts: 4})
	id, err := svc.Submit(tok, "src", "dst", []FileSpec{{RelPath: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	view := waitFor(t, svc, tok, id, StatusFailed)
	if view.Attempts != 4 {
		t.Errorf("attempts = %d, want 4", view.Attempts)
	}
	if mover.attempts.Load() != 4 {
		t.Errorf("mover called %d times, want 4", mover.attempts.Load())
	}
}

// spacedMover is a countingMover that declares its retry spacing, as
// a ChunkMover landing over the wire does.
type spacedMover struct {
	countingMover
	delays []time.Duration
}

func (m *spacedMover) RetryDelay(attempt int) time.Duration { return m.delays[attempt] }

// inlineMover fails every attempt before Move returns and declares no
// spacing, as SimMover does not.
type inlineMover struct{ attempts int }

func (m *inlineMover) Move(task *Task, src, dst *Endpoint, done func(Report, error)) {
	m.attempts++
	done(Report{}, errors.New("transient"))
}

// TestServiceSpacesRetriesByMover: the service waits between attempts as
// long as the mover asks, and a mover that does not ask — the sim and
// in-process ones, whose timelines Table 1 pins — is retried at once: all
// of its attempts are spent by the time Submit returns.
func TestServiceSpacesRetriesByMover(t *testing.T) {
	iss, tok := issuerAndToken(t)
	submit := func(mover Mover) (*Service, string) {
		t.Helper()
		svc := NewService(iss, mover, time.Now, Options{MaxAttempts: 3})
		svc.RegisterEndpoint(Endpoint{ID: "src", Root: t.TempDir()})
		svc.RegisterEndpoint(Endpoint{ID: "dst", Root: t.TempDir()})
		id, err := svc.Submit(tok, "src", "dst", []FileSpec{{RelPath: "x"}})
		if err != nil {
			t.Fatal(err)
		}
		return svc, id
	}

	spaced := &spacedMover{delays: []time.Duration{30 * time.Millisecond, 60 * time.Millisecond}}
	spaced.err = errors.New("transient")
	start := time.Now()
	svc, id := submit(spaced)
	if view := waitFor(t, svc, tok, id, StatusFailed); view.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", view.Attempts)
	}
	if elapsed := time.Since(start); elapsed < 90*time.Millisecond {
		t.Errorf("3 attempts finished in %v, before the 30 ms + 60 ms the mover asked for", elapsed)
	}

	inline := &inlineMover{}
	svc, id = submit(inline)
	view, err := svc.Status(tok, id)
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != StatusFailed || view.Attempts != 3 || inline.attempts != 3 {
		t.Errorf("after Submit: status %s, %d attempts, mover called %d times; want FAILED after 3 immediate attempts",
			view.Status, view.Attempts, inline.attempts)
	}
}

// TestRetryDelayBelongsToTheLanding: a local landing is retried at once
// and has nothing to close; a wire landing's retries fall in the default
// back-off's full-jitter window, 100 ms doubling per attempt.
func TestRetryDelayBelongsToTheLanding(t *testing.T) {
	local, wired := &ChunkMover{}, &ChunkMover{Land: &WireLanding{}}
	for n := 0; n < 5; n++ {
		if d := local.RetryDelay(n); d != 0 {
			t.Errorf("local landing, attempt %d: delay %v, want 0", n, d)
		}
		if d, ceil := wired.RetryDelay(n), 100*time.Millisecond<<n; d < 0 || d > ceil {
			t.Errorf("wire landing, attempt %d: delay %v outside [0, %v]", n, d, ceil)
		}
	}
	if err := local.Close(); err != nil {
		t.Errorf("Close on a local mover: %v", err)
	}
}

// TestRetryBackoffSpacesAttempts: the wire landing is what declares
// spacing — a mover's attempts against a daemon that is not there are
// spaced by RetryBackoff; the pinned Rand makes the delays deterministic.
func TestRetryBackoffSpacesAttempts(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	src := t.TempDir()
	if err := os.WriteFile(filepath.Join(src, "x"), []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	iss, tok := issuerAndToken(t)
	mover := &ChunkMover{ManifestDir: t.TempDir(), Land: &WireLanding{Timeout: time.Second,
		RetryBackoff: &wire.Backoff{Base: 30 * time.Millisecond, Rand: func() float64 { return 1 }}}}
	defer mover.Close()
	svc := NewService(iss, mover, time.Now, Options{MaxAttempts: 3})
	svc.RegisterEndpoint(Endpoint{ID: "src", Root: src})
	svc.RegisterEndpoint(Endpoint{ID: "dst", Root: dead})
	start := time.Now()
	id, err := svc.Submit(tok, "src", "dst", []FileSpec{{RelPath: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	if view := waitFor(t, svc, tok, id, StatusFailed); view.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", view.Attempts)
	}
	// Two retries delayed 30ms and 60ms: the task cannot finish faster
	// than the summed delays.
	if elapsed := time.Since(start); elapsed < 90*time.Millisecond {
		t.Errorf("3 attempts finished in %v, want >= 90ms of backoff spacing", elapsed)
	}
}

// chunkRejectServer speaks just enough wire protocol for wireSink.Write:
// Hello, then MsgWrite answered with the configured code for the first
// `rejects` writes and MsgWriteOK afterwards.
func chunkRejectServer(t *testing.T, code string, rejects int) (addr string, writes *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	writes = new(atomic.Int64)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				typ, _, _, err := wire.ReadFrame(c, 0)
				if err != nil || typ != wire.MsgHello {
					return
				}
				wire.WriteFrame(c, wire.MsgHelloOK, wire.HelloOK{Facility: "reject", Version: wire.ProtocolVersion}, nil)
				for {
					typ, _, _, err := wire.ReadFrame(c, 0)
					if err != nil {
						return
					}
					if typ != wire.MsgWrite {
						wire.WriteFrame(c, wire.MsgError, wire.ErrFrame{Code: wire.CodeBadRequest, Msg: "writes only"}, nil)
						continue
					}
					if n := writes.Add(1); n <= int64(rejects) {
						wire.WriteFrame(c, wire.MsgError, wire.ErrFrame{Code: code, Msg: "injected reject"}, nil)
						continue
					}
					wire.WriteFrame(c, wire.MsgWriteOK, wire.WriteOK{}, nil)
				}
			}(c)
		}
	}()
	return ln.Addr().String(), writes
}

func shipOneChunk(t *testing.T, l *WireLanding, addr string) error {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "c.bin")
	if err := os.WriteFile(path, make([]byte, 512), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, _, err = wireSink{l.client(addr)}.Write("c.bin", chunkSpan{File: 0, Index: 0, Off: 0, N: 512}, f, nil)
	return err
}

// TestShipChunkResendsOnChecksumReject: a daemon-side checksum rejection
// re-ships the chunk within the same attempt — up to DefaultChunkRetries
// extra sends — instead of failing the whole attempt.
func TestShipChunkResendsOnChecksumReject(t *testing.T) {
	addr, writes := chunkRejectServer(t, wire.CodeChecksum, DefaultChunkRetries)
	m := &WireLanding{Timeout: 5 * time.Second}
	defer m.close()
	if err := shipOneChunk(t, m, addr); err != nil {
		t.Fatalf("chunk not re-sent through checksum rejects: %v", err)
	}
	if n := writes.Load(); n != DefaultChunkRetries+1 {
		t.Fatalf("server saw %d writes, want %d rejects + 1 OK", n, DefaultChunkRetries)
	}
}

// TestShipChunkResendBudgetExhausted: more rejects than
// DefaultChunkRetries fails the attempt with the checksum error.
func TestShipChunkResendBudgetExhausted(t *testing.T) {
	addr, writes := chunkRejectServer(t, wire.CodeChecksum, 100)
	m := &WireLanding{Timeout: 5 * time.Second}
	defer m.close()
	err := shipOneChunk(t, m, addr)
	if !wire.IsRemoteCode(err, wire.CodeChecksum) {
		t.Fatalf("err = %v, want the surfaced checksum rejection", err)
	}
	if n := writes.Load(); n != 1+DefaultChunkRetries {
		t.Fatalf("server saw %d writes, want 1 + %d re-sends", n, DefaultChunkRetries)
	}
}

// TestShipChunkDoesNotResendOnCorrupt: the corrupt code means the
// STREAM is damaged, not the chunk bytes — that is the service-attempt
// retry's job (and the attempts=2 contract of the corrupt-on-wire
// test), so the sink must not absorb it.
func TestShipChunkDoesNotResendOnCorrupt(t *testing.T) {
	addr, writes := chunkRejectServer(t, wire.CodeCorrupt, 1)
	m := &WireLanding{Timeout: 5 * time.Second}
	defer m.close()
	if err := shipOneChunk(t, m, addr); !wire.IsRemoteCode(err, wire.CodeCorrupt) {
		t.Fatalf("err = %v, want the corrupt rejection surfaced", err)
	}
	if n := writes.Load(); n != 1 {
		t.Fatalf("server saw %d writes, want 1 (no resend on corrupt)", n)
	}
}

// slowFlakyMover fails the first attempt after a delay, then succeeds —
// for exercising the retry path under -race together with Status polls.
type slowFlakyMover struct {
	mu    sync.Mutex
	calls int
}

func (m *slowFlakyMover) RetryDelay(int) time.Duration { return 5 * time.Millisecond }

func (m *slowFlakyMover) Move(task *Task, src, dst *Endpoint, done func(Report, error)) {
	m.mu.Lock()
	m.calls++
	first := m.calls == 1
	m.mu.Unlock()
	go func() {
		time.Sleep(5 * time.Millisecond)
		if first {
			done(Report{}, errors.New("transient wobble"))
			return
		}
		done(Report{}, nil)
	}()
}

func TestRetryWithBackoffConcurrentStatus(t *testing.T) {
	iss, tok := issuerAndToken(t)
	svc := NewService(iss, &slowFlakyMover{}, time.Now, Options{MaxAttempts: 3})
	svc.RegisterEndpoint(Endpoint{ID: "src", Root: t.TempDir()})
	svc.RegisterEndpoint(Endpoint{ID: "dst", Root: t.TempDir()})
	id, err := svc.Submit(tok, "src", "dst", []FileSpec{{RelPath: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				svc.Status(tok, id)
				time.Sleep(time.Millisecond)
			}
		}()
	}
	view := waitFor(t, svc, tok, id, StatusSucceeded)
	if view.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", view.Attempts)
	}
	wg.Wait()
}
