package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"picoprobe/internal/compute"
	"picoprobe/internal/landing"
)

// maxStatusFill bounds the opaque fill a Status request may ask for —
// a goodput probe needs hundreds of kilobytes, not a memory bomb.
const maxStatusFill = 8 << 20

// Server is one facility's wire endpoint: ranged chunk I/O under Root,
// compute dispatch into Compute, and the status endpoint probers
// measure. It is deliberately stateless across restarts — the only
// durable state is the files under Root, and resume bookkeeping lives
// entirely in the client's chunk manifest — so a SIGKILLed daemon
// restarted on the same root serves resumed transfers with no recovery
// step of its own.
type Server struct {
	// Root is the facility storage root all file ops are confined to.
	Root string
	// Facility names this endpoint in HelloOK and StatusOK.
	Facility string
	// Verify authenticates the Hello token (nil = open server; tests).
	Verify func(token string) error
	// Compute, when set, serves Dispatch/Job. ComputeToken is the
	// server's own token for it (the wire session was already
	// authenticated at Hello; the compute service still wants one).
	Compute      *compute.Service
	ComputeToken string
	// Now supplies timestamps (nil = time.Now).
	Now func() time.Time
	// MaxSessions caps concurrent sessions (0 = unlimited). A connection
	// over the cap is answered with a typed CodeBusy error and closed —
	// an overloaded daemon says so instead of queueing silently.
	MaxSessions int
	// IdleTimeout bounds how long a session may sit between requests
	// (and how long one frame may take to arrive or a response to
	// drain). 0 = no idle deadline, the historical behavior. With it
	// set, a silently dead peer can never pin a session goroutine.
	IdleTimeout time.Duration
	// Logf, when set, receives per-connection error logs.
	Logf func(format string, args ...any)

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]bool // conn -> currently mid-request ("busy")
	closed   bool
	draining bool
	// quit is closed by Drain and Close; it wakes every held Job.
	quit   chan struct{}
	wg     sync.WaitGroup
	jobs   atomic.Int64
	held   atomic.Int64
	merged atomic.Int64
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral test port),
// serves in a background goroutine and returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go s.Serve(ln)
	return ln.Addr().String(), nil
}

// Serve accepts sessions on ln until Close (or a listener error).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("wire: server closed")
	}
	s.ln = ln
	if s.conns == nil {
		s.conns = map[net.Conn]bool{}
	}
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			stopping := s.closed || s.draining
			s.mu.Unlock()
			if stopping {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed || s.draining {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		if s.MaxSessions > 0 && len(s.conns) >= s.MaxSessions {
			s.wg.Add(1)
			s.mu.Unlock()
			// Over the admission cap: answer with a typed busy error (the
			// frame the client's Hello read will see) and close. Done off
			// the accept loop so a non-reading peer cannot stall accepts.
			go func() {
				defer s.wg.Done()
				c.SetDeadline(time.Now().Add(2 * time.Second))
				s.reject(c, CodeBusy, "session limit reached")
				c.Close()
			}()
			continue
		}
		s.conns[c] = false
		s.wg.Add(1)
		s.mu.Unlock()
		go s.session(c)
	}
}

// Drain is the graceful half of Close: stop accepting, drop idle
// sessions, answer held Jobs at once, let mid-request sessions finish
// their current exchange (bounded by grace; 0 = wait indefinitely), then
// fully Close. A drained-away client sees either a refused dial or a
// typed busy answer — both retryable — so in-flight campaigns fail over
// instead of failing.
func (s *Server) Drain(grace time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.wakeHeldLocked()
	ln := s.ln
	s.ln = nil
	for c, busy := range s.conns {
		if !busy {
			c.Close()
		}
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if grace > 0 {
		select {
		case <-done:
		case <-time.After(grace):
			s.logf("wire: drain grace %v expired with sessions still busy", grace)
		}
	} else {
		<-done
	}
	s.Close()
	return err
}

// Close stops the listener, wakes held Jobs, closes every live session
// and waits for their goroutines.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.wakeHeldLocked()
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// quitLocked returns the channel Drain and Close close; s.mu is held.
func (s *Server) quitLocked() chan struct{} {
	if s.quit == nil {
		s.quit = make(chan struct{})
	}
	return s.quit
}

// wakeHeldLocked answers every held Job now and every later one at once;
// s.mu is held.
func (s *Server) wakeHeldLocked() {
	q := s.quitLocked()
	select {
	case <-q: // already woken
	default:
		close(q)
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Server) now() time.Time {
	if s.Now != nil {
		return s.Now()
	}
	return time.Now()
}

// session runs one connection's request/response loop. The first frame
// must be a valid Hello; afterwards every request gets exactly one
// response. A torn or corrupt frame gets a best-effort error response
// and the connection is dropped — the protocol never resynchronizes a
// damaged stream.
func (s *Server) session(c net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
		s.wg.Done()
	}()

	s.armIdle(c)
	typ, head, _, err := ReadFrame(c, DefaultMaxFrame)
	if err != nil {
		return
	}
	if typ != MsgHello {
		s.reject(c, CodeBadRequest, "first frame must be Hello")
		return
	}
	var hello Hello
	if err := DecodeHead(head, &hello); err != nil {
		s.reject(c, CodeBadRequest, err.Error())
		return
	}
	if hello.Magic != Magic || hello.Version < minProtocolVersion || hello.Version > ProtocolVersion {
		s.reject(c, CodeAuth, fmt.Sprintf("bad magic/version %q/%d", hello.Magic, hello.Version))
		return
	}
	if s.Verify != nil {
		if err := s.Verify(hello.Token); err != nil {
			s.reject(c, CodeAuth, err.Error())
			return
		}
	}
	if err := WriteFrame(c, MsgHelloOK, HelloOK{Facility: s.Facility, Version: hello.Version}, nil); err != nil {
		return
	}

	for {
		s.armIdle(c)
		// The request payload is recycled: a session is strict
		// request/response, so nothing references it once handle returns.
		var payload *[]byte
		typ, head, body, err := readFrame(c, DefaultMaxFrame, func(n int) []byte {
			payload = getFrameBuf(n)
			return *payload
		})
		if err != nil {
			if isTimeout(err) {
				// Idle deadline: the peer went quiet past IdleTimeout. Drop
				// the session without ceremony — the client's pool retry (or
				// its own idle eviction) covers the other end.
				s.logf("wire: %s: idle session reaped", c.RemoteAddr())
				return
			}
			if !errors.Is(err, io.EOF) && !isClosedConn(err) {
				// Loud rejection: a torn tail or CRC mismatch is answered
				// (best effort) with the typed corrupt code before the drop,
				// so a live peer learns the stream is damaged — and that a
				// retry on a fresh session may succeed — instead of hanging
				// on a silent close.
				s.logf("wire: %s: dropping session: %v", c.RemoteAddr(), err)
				s.reject(c, CodeCorrupt, err.Error())
			}
			return
		}
		s.mu.Lock()
		if s.draining || s.closed {
			s.mu.Unlock()
			s.reject(c, CodeBusy, "server draining")
			return
		}
		s.conns[c] = true
		s.mu.Unlock()
		ok := s.handle(c, typ, head, body)
		putFrameBuf(payload)
		s.mu.Lock()
		s.conns[c] = false
		draining := s.draining
		s.mu.Unlock()
		if !ok || draining {
			return
		}
	}
}

// armIdle sets the per-request deadline: one request must arrive, be
// served and have its response drained within IdleTimeout of the
// previous one.
func (s *Server) armIdle(c net.Conn) {
	if s.IdleTimeout > 0 {
		c.SetDeadline(s.nowWall().Add(s.IdleTimeout))
	}
}

// nowWall is wall time for socket deadlines — Server.Now may be a
// virtual clock, and deadlines on a real socket must not be.
func (s *Server) nowWall() time.Time { return time.Now() }

// isTimeout reports a deadline-exceeded network error.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// reject writes a best-effort error frame (the conn may already be
// dead; that is fine — the caller drops it either way).
func (s *Server) reject(c net.Conn, code, msg string) {
	_ = WriteFrame(c, MsgError, ErrFrame{Code: code, Msg: msg}, nil)
}

// handle serves one request; false drops the session.
func (s *Server) handle(c net.Conn, typ byte, head, body []byte) bool {
	var respTyp byte
	var respHead any
	var respBody []byte
	var werr *ErrFrame

	switch typ {
	case MsgStat:
		var req Stat
		if err := DecodeHead(head, &req); err != nil {
			werr = &ErrFrame{Code: CodeBadRequest, Msg: err.Error()}
			break
		}
		sizes, err := s.store().Stat(req.Rels)
		if err != nil {
			werr = classify(err)
			break
		}
		respTyp, respHead = MsgStatOK, StatOK{Sizes: sizes}

	case MsgPrepare:
		var req Prepare
		if err := DecodeHead(head, &req); err != nil {
			werr = &ErrFrame{Code: CodeBadRequest, Msg: err.Error()}
			break
		}
		if err := s.store().Prepare(req.Rel, req.Size); err != nil {
			werr = classify(err)
			break
		}
		respTyp, respHead = MsgPrepareOK, PrepareOK{}

	case MsgWrite:
		var req Write
		if err := DecodeHead(head, &req); err != nil {
			werr = &ErrFrame{Code: CodeBadRequest, Msg: err.Error()}
			break
		}
		// Verify at the door: a chunk that declares no digest, or whose
		// declared digest does not match the received bytes, never touches
		// the destination file.
		if req.SHA256 == "" {
			werr = &ErrFrame{Code: CodeBadRequest, Msg: fmt.Sprintf("chunk @%d of %s declares no digest", req.Off, req.Rel)}
			break
		}
		sum := sha256.Sum256(body)
		got := hex.EncodeToString(sum[:])
		if got != req.SHA256 {
			werr = &ErrFrame{Code: CodeChecksum,
				Msg: fmt.Sprintf("chunk @%d of %s: declared digest %s, received bytes hash to %s", req.Off, req.Rel, req.SHA256, got)}
			break
		}
		_, whole, err := s.store().Write(req.Rel, req.Off, bytes.NewReader(body))
		if err != nil {
			werr = classify(err)
			break
		}
		resp := WriteOK{}
		if req.Whole && whole {
			// Every byte of the file is a byte of this body, which the door
			// just checked: the write is the file's verified merge.
			resp.SHA256 = got
			s.merged.Add(1)
		}
		respTyp, respHead = MsgWriteOK, resp

	case MsgHash:
		var req Hash
		if err := DecodeHead(head, &req); err != nil {
			werr = &ErrFrame{Code: CodeBadRequest, Msg: err.Error()}
			break
		}
		sum, ok, err := s.store().Hash(req.Rel, req.Off, req.N)
		if err != nil {
			werr = classify(err)
			break
		}
		respTyp, respHead = MsgHashOK, HashOK{Present: ok, SHA256: sum}

	case MsgMerge:
		var req Merge
		if err := DecodeHead(head, &req); err != nil {
			werr = &ErrFrame{Code: CodeBadRequest, Msg: err.Error()}
			break
		}
		sum, badChunk, err := s.store().Merge(req.Rel, req.Chunks)
		switch {
		case badChunk >= 0:
			werr = &ErrFrame{Code: CodeChunkMismatch,
				Msg: fmt.Sprintf("chunk %d of %s does not match its recorded digest", badChunk, req.Rel), Chunk: badChunk}
		case err != nil:
			werr = classify(err)
		default:
			respTyp, respHead = MsgMergeOK, MergeOK{SHA256: sum}
		}

	case MsgDispatch:
		var req Dispatch
		if err := DecodeHead(head, &req); err != nil {
			werr = &ErrFrame{Code: CodeBadRequest, Msg: err.Error()}
			break
		}
		if s.Compute == nil {
			werr = &ErrFrame{Code: CodeBadRequest, Msg: "facility has no compute service"}
			break
		}
		id, err := s.Compute.Submit(s.ComputeToken, req.Function, s.resolveArgs(req.Args))
		if err != nil {
			werr = &ErrFrame{Code: CodeNotFound, Msg: err.Error()}
			break
		}
		s.jobs.Add(1)
		respTyp, respHead = MsgDispatchOK, DispatchOK{Task: id}

	case MsgJob:
		var req Job
		if err := DecodeHead(head, &req); err != nil {
			werr = &ErrFrame{Code: CodeBadRequest, Msg: err.Error()}
			break
		}
		if s.Compute == nil {
			werr = &ErrFrame{Code: CodeBadRequest, Msg: "facility has no compute service"}
			break
		}
		if req.WaitMs > 0 {
			s.hold(req.Task, time.Duration(req.WaitMs)*time.Millisecond)
		}
		view, err := s.Compute.Status(s.ComputeToken, req.Task)
		if err != nil {
			werr = &ErrFrame{Code: CodeNotFound, Msg: err.Error()}
			break
		}
		resp := JobOK{
			Status: string(view.Status),
			Error:  view.Error,
			Result: view.Result,
			NodeID: view.NodeID,
		}
		if !view.Started.IsZero() {
			resp.Started = view.Started.UnixNano()
		}
		if !view.Completed.IsZero() {
			resp.Completed = view.Completed.UnixNano()
		}
		respTyp, respHead = MsgJobOK, resp

	case MsgStatus:
		var req Status
		if err := DecodeHead(head, &req); err != nil {
			werr = &ErrFrame{Code: CodeBadRequest, Msg: err.Error()}
			break
		}
		if req.Fill < 0 || req.Fill > maxStatusFill {
			werr = &ErrFrame{Code: CodeBadRequest, Msg: fmt.Sprintf("fill %d out of range", req.Fill)}
			break
		}
		respTyp = MsgStatusOK
		respHead = StatusOK{
			Facility: s.Facility,
			Jobs:     int(s.jobs.Load()),
			Held:     int(s.held.Load()),
			Merged:   int(s.merged.Load()),
			UnixNano: s.now().UnixNano(),
		}
		respBody = make([]byte, req.Fill)

	default:
		werr = &ErrFrame{Code: CodeBadRequest, Msg: fmt.Sprintf("unknown message type %d", typ)}
	}

	if werr != nil {
		return WriteFrame(c, MsgError, *werr, nil) == nil
	}
	return WriteFrame(c, respTyp, respHead, respBody) == nil
}

// hold blocks a held Job until its task is terminal (or unknown), the
// hold — wait, capped by MaxJobHold and half the IdleTimeout, so the
// answer leaves inside the session's deadline — ends, or Drain/Close wake
// it. A hold that ends first leaves its Watch callback registered until
// the task ends: one closure per MaxJobHold of task runtime.
func (s *Server) hold(task string, wait time.Duration) {
	wait = min(wait, MaxJobHold)
	if s.IdleTimeout > 0 {
		wait = min(wait, s.IdleTimeout/2)
	}
	ended := make(chan struct{})
	s.Compute.Watch(task, func() { close(ended) })
	select {
	case <-ended:
		return
	default:
	}
	s.mu.Lock()
	quit := s.quitLocked()
	s.mu.Unlock()
	s.held.Add(1)
	defer s.held.Add(-1)
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-ended:
	case <-t.C:
	case <-quit:
	}
}

// store is the landing store every file op goes through: path
// confinement under Root and the disk half of the chunk discipline live
// there, shared with the chunk mover's local landing (DESIGN.md §8).
func (s *Server) store() landing.Store { return landing.Store{Root: s.Root} }

// resolveArgs rewrites a relative "path" argument under Root so
// dispatched functions see daemon-local absolute paths.
func (s *Server) resolveArgs(args map[string]any) compute.Args {
	out := make(compute.Args, len(args))
	for k, v := range args {
		out[k] = v
	}
	if p, ok := out["path"].(string); ok && p != "" && !filepath.IsAbs(p) {
		if full, err := s.store().Resolve(p); err == nil {
			out["path"] = full
		}
	}
	return out
}

// classify maps a handler error onto a wire error frame, preserving an
// explicit RemoteError's code.
func classify(err error) *ErrFrame {
	var re *RemoteError
	if errors.As(err, &re) {
		return &ErrFrame{Code: re.Code, Msg: re.Msg, Chunk: re.Chunk}
	}
	code := CodeIO
	switch {
	case errors.Is(err, os.ErrNotExist):
		code = CodeNotFound
	case errors.Is(err, landing.ErrInvalid):
		code = CodeBadRequest
	}
	return &ErrFrame{Code: code, Msg: err.Error()}
}

// isClosedConn reports the "use of closed network connection" family —
// the expected teardown noise of Close racing a blocked Read.
func isClosedConn(err error) bool {
	return errors.Is(err, net.ErrClosed)
}
