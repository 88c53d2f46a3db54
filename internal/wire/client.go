package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Client talks the wire protocol to one facility daemon. It keeps a
// small pool of authenticated sessions so N parallel transfer streams
// become N concurrent connections; each op checks a session out, runs
// one request/response exchange, and returns it. A session that sees a
// transport or codec error is discarded — the next op dials fresh,
// which is the whole reconnect story: resume state lives in the chunk
// manifest, not the socket.
//
// Resilience is what the client does, not something a caller asks for
// (DESIGN.md §12): pooled sessions a dead daemon would otherwise leave
// rotting until the next exchange are evicted once idle; a circuit
// breaker fails ops fast after breakerThreshold consecutive
// transport-level failures, while the daemon is provably unreachable; a
// draining or admission-capped server's typed busy answer is retried
// busyRetries times with back-off, without burning a transfer attempt.
// The duration fields below exist for tests to shrink: zero means the
// production value, never "off".
type Client struct {
	// Addr is the daemon's host:port.
	Addr string
	// Token is presented in Hello (empty is fine against an open server).
	Token string
	// Dial overrides the dialer (nil = plain TCP). Tests inject
	// netfault dialers here.
	Dial func(addr string) (net.Conn, error)
	// Timeout is the per-op deadline covering dial, request and
	// response (0 = 30s).
	Timeout time.Duration
	// IdleTimeout evicts pooled sessions idle longer than this (0 =
	// 1 min). A daemon restart leaves the pool full of dead
	// sockets; eviction turns the next op's "discover staleness, retry on
	// fresh dial" into a plain fresh dial.
	IdleTimeout time.Duration
	// BreakerCooldown is how long an open breaker refuses ops before
	// admitting one half-open probe (0 = DefaultBreakerCooldown).
	BreakerCooldown time.Duration
	// Backoff spaces busy retries (nil = 50 ms doubling to 2 s, full
	// jitter).
	Backoff *Backoff

	mu     sync.Mutex
	idle   []idleSession
	out    map[net.Conn]struct{} // checked-out sessions, which Close also closes
	reaper *time.Timer
	closed bool

	// Circuit breaker state, under mu.
	brkFails     int
	brkOpenUntil time.Time
	brkProbe     bool
}

// idleSession is one pooled authenticated connection and when it was
// returned (LIFO pool: newest at the tail, oldest — the eviction
// candidates — at the head).
type idleSession struct {
	conn net.Conn
	at   time.Time
}

// DefaultTimeout is the per-op deadline when Client.Timeout is zero.
const DefaultTimeout = 30 * time.Second

// defaultIdleTimeout is the pooled-session idle bound when
// Client.IdleTimeout is zero. It sits below picoprobe-facilityd's 2 min
// -idle-timeout default, so the client drops a quiet session before the
// server reaps it instead of discovering it dead on the next exchange.
const defaultIdleTimeout = time.Minute

// DefaultBreakerCooldown is the open-breaker hold when
// Client.BreakerCooldown is zero.
const DefaultBreakerCooldown = 5 * time.Second

const (
	// breakerThreshold consecutive transport-level failures open the
	// per-daemon circuit breaker. A RemoteError never counts — a daemon
	// that answers, even with an error, is alive.
	breakerThreshold = 4
	// busyRetries is how many extra times an op is tried when the server
	// answers CodeBusy.
	busyRetries = 3
)

// defaultBusyBackoff spaces busy retries when Client.Backoff is nil.
var defaultBusyBackoff = &Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second}

// orDefault is the "zero means the production value" rule of the
// client's duration fields.
func orDefault(d, def time.Duration) time.Duration {
	if d > 0 {
		return d
	}
	return def
}

func (c *Client) timeout() time.Duration     { return orDefault(c.Timeout, DefaultTimeout) }
func (c *Client) idleTimeout() time.Duration { return orDefault(c.IdleTimeout, defaultIdleTimeout) }

// Close drops every session, idle or checked out: an op in flight —
// a held Job included — fails at once, and every later op fails too.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, s := range c.idle {
		s.conn.Close()
	}
	c.idle = nil
	for conn := range c.out {
		conn.Close()
	}
	c.out = nil
	if c.reaper != nil {
		c.reaper.Stop()
		c.reaper = nil
	}
	return nil
}

// checkout returns an authenticated session: an idle one if available
// (fromPool true), otherwise a fresh dial + Hello handshake.
func (c *Client) checkout(deadline time.Time) (conn net.Conn, fromPool bool, err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false, fmt.Errorf("wire: client closed")
	}
	c.evictLocked(time.Now())
	if n := len(c.idle); n > 0 {
		conn := c.idle[n-1].conn
		c.idle = c.idle[:n-1]
		c.trackLocked(conn)
		c.mu.Unlock()
		return conn, true, nil
	}
	c.mu.Unlock()

	dial := c.Dial
	if dial == nil {
		dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, time.Until(deadline))
		}
	}
	conn, err = dial(c.Addr)
	if err != nil {
		return nil, false, fmt.Errorf("wire: dial %s: %w", c.Addr, err)
	}
	conn.SetDeadline(deadline)
	if err := WriteFrame(conn, MsgHello, Hello{Magic: Magic, Version: ProtocolVersion, Token: c.Token}, nil); err != nil {
		conn.Close()
		return nil, false, fmt.Errorf("wire: hello: %w", err)
	}
	typ, head, _, err := ReadFrame(conn, DefaultMaxFrame)
	if err != nil {
		conn.Close()
		return nil, false, fmt.Errorf("wire: hello: %w", err)
	}
	if typ == MsgError {
		conn.Close()
		return nil, false, remoteErr(head)
	}
	if typ != MsgHelloOK {
		conn.Close()
		return nil, false, fmt.Errorf("wire: hello answered with message type %d", typ)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		conn.Close()
		return nil, false, fmt.Errorf("wire: client closed")
	}
	c.trackLocked(conn)
	return conn, false, nil
}

// trackLocked records a checked-out session; c.mu is held.
func (c *Client) trackLocked(conn net.Conn) {
	if c.out == nil {
		c.out = map[net.Conn]struct{}{}
	}
	c.out[conn] = struct{}{}
}

// drop closes a checked-out session that can no longer be trusted.
func (c *Client) drop(conn net.Conn) {
	c.mu.Lock()
	delete(c.out, conn)
	c.mu.Unlock()
	conn.Close()
}

func (c *Client) checkin(conn net.Conn) {
	c.mu.Lock()
	delete(c.out, conn)
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return
	}
	c.idle = append(c.idle, idleSession{conn: conn, at: time.Now()})
	if c.reaper == nil {
		c.reaper = time.AfterFunc(c.idleTimeout(), c.reap)
	}
	c.mu.Unlock()
}

// evictLocked closes pooled sessions idle past IdleTimeout. The pool is
// LIFO, so eviction only ever eats from the head.
func (c *Client) evictLocked(now time.Time) {
	cutoff := now.Add(-c.idleTimeout())
	for len(c.idle) > 0 && c.idle[0].at.Before(cutoff) {
		c.idle[0].conn.Close()
		c.idle = c.idle[1:]
	}
}

// reap is the background eviction tick: it runs whenever sessions sat
// in the pool a full IdleTimeout, so dead daemons' sockets are released
// even if the client goes quiet.
func (c *Client) reap() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		c.reaper = nil
		return
	}
	c.evictLocked(time.Now())
	if len(c.idle) > 0 {
		c.reaper = time.AfterFunc(c.idleTimeout(), c.reap)
	} else {
		c.reaper = nil
	}
}

// breakerAllow gates one op on the circuit breaker: closed passes, open
// fails fast, and an open breaker past its cooldown admits exactly one
// half-open probe at a time.
func (c *Client) breakerAllow() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.brkFails < breakerThreshold {
		return nil
	}
	if time.Now().Before(c.brkOpenUntil) {
		return fmt.Errorf("%w: %s unreachable after %d consecutive failures", ErrCircuitOpen, c.Addr, c.brkFails)
	}
	if c.brkProbe {
		return fmt.Errorf("%w: %s half-open probe already in flight", ErrCircuitOpen, c.Addr)
	}
	c.brkProbe = true
	return nil
}

// breakerRecord folds one op outcome into the breaker. Any answer from
// the daemon — success or RemoteError — closes it; only transport-level
// failures (dial refused, dead socket, torn stream) count toward
// opening, and a failed half-open probe re-arms the full cooldown.
func (c *Client) breakerRecord(err error) {
	alive := err == nil || errors.As(err, new(*RemoteError))
	c.mu.Lock()
	defer c.mu.Unlock()
	c.brkProbe = false
	if alive {
		c.brkFails = 0
		c.brkOpenUntil = time.Time{}
		return
	}
	c.brkFails++
	if c.brkFails >= breakerThreshold {
		c.brkOpenUntil = time.Now().Add(orDefault(c.BreakerCooldown, DefaultBreakerCooldown))
	}
}

// BreakerOpen reports whether the circuit breaker currently fails ops
// fast (for status surfaces and tests; ops should just call and look
// for ErrCircuitOpen).
func (c *Client) BreakerOpen() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.brkFails >= breakerThreshold && time.Now().Before(c.brkOpenUntil)
}

// do runs one exchange with the resilience wrappers applied: the
// breaker gates entry, and a typed busy answer (admission cap, drain)
// is retried up to busyRetries times with Backoff spacing — busy is the
// server asking for patience, not a failure worth a transfer attempt.
func (c *Client) do(reqTyp byte, reqHead any, reqBody []byte, wantTyp byte, respHead any) ([]byte, error) {
	backoff := c.Backoff
	if backoff == nil {
		backoff = defaultBusyBackoff
	}
	for busy := 0; ; busy++ {
		body, err := c.doOnce(reqTyp, reqHead, reqBody, wantTyp, respHead)
		if err == nil {
			return body, nil
		}
		if busy < busyRetries && IsRemoteCode(err, CodeBusy) {
			time.Sleep(backoff.Delay(busy))
			continue
		}
		return nil, err
	}
}

// doOnce runs one request/response exchange: checkout, write the
// request, read the response. A MsgError response becomes a
// *RemoteError and the session survives; any transport or codec failure
// closes the session. A transport failure on a POOLED session gets one
// retry on a fresh dial: an idle session may have been dropped by the
// server (codec reject, daemon restart) without the client knowing, and
// that staleness must not surface as an op failure (or trip the
// breaker). Dispatch is exempt — it is the one non-idempotent request,
// so a lost response must not risk running the function twice.
func (c *Client) doOnce(reqTyp byte, reqHead any, reqBody []byte, wantTyp byte, respHead any) ([]byte, error) {
	if err := c.breakerAllow(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(c.timeout())
	for attempt := 0; ; attempt++ {
		conn, fromPool, err := c.checkout(deadline)
		if err != nil {
			c.breakerRecord(err)
			return nil, err
		}
		conn.SetDeadline(deadline)
		body, err := c.exchange(conn, reqTyp, reqHead, reqBody, wantTyp, respHead)
		if err == nil {
			c.breakerRecord(nil)
			return body, nil
		}
		var re *RemoteError
		if errors.As(err, &re) {
			c.breakerRecord(err)
			return nil, err
		}
		if fromPool && attempt == 0 && reqTyp != MsgDispatch {
			continue
		}
		c.breakerRecord(err)
		return nil, err
	}
}

// exchange runs one request/response on an authenticated session,
// checking it back in on success or RemoteError and closing it on any
// transport or codec failure.
func (c *Client) exchange(conn net.Conn, reqTyp byte, reqHead any, reqBody []byte, wantTyp byte, respHead any) ([]byte, error) {
	if err := WriteFrame(conn, reqTyp, reqHead, reqBody); err != nil {
		c.drop(conn)
		return nil, fmt.Errorf("wire: send: %w", err)
	}
	typ, head, body, err := ReadFrame(conn, DefaultMaxFrame)
	if err != nil {
		c.drop(conn)
		return nil, fmt.Errorf("wire: recv: %w", err)
	}
	if typ == MsgError {
		c.checkin(conn)
		return nil, remoteErr(head)
	}
	if typ != wantTyp {
		c.drop(conn)
		return nil, fmt.Errorf("wire: expected message type %d, got %d", wantTyp, typ)
	}
	if respHead != nil {
		if err := DecodeHead(head, respHead); err != nil {
			c.drop(conn)
			return nil, err
		}
	}
	c.checkin(conn)
	return body, nil
}

func remoteErr(head []byte) error {
	var ef ErrFrame
	if err := DecodeHead(head, &ef); err != nil {
		return fmt.Errorf("wire: undecodable error frame: %w", err)
	}
	return &RemoteError{Code: ef.Code, Msg: ef.Msg, Chunk: ef.Chunk}
}

// Stat reports the sizes of files under the facility root, -1 for
// absent ones, parallel to rels.
func (c *Client) Stat(rels []string) ([]int64, error) {
	var resp StatOK
	if _, err := c.do(MsgStat, Stat{Rels: rels}, nil, MsgStatOK, &resp); err != nil {
		return nil, err
	}
	if len(resp.Sizes) != len(rels) {
		return nil, fmt.Errorf("wire: stat answered %d sizes for %d rels", len(resp.Sizes), len(rels))
	}
	return resp.Sizes, nil
}

// Prepare creates rel under the facility root and truncates it to size.
func (c *Client) Prepare(rel string, size int64) error {
	_, err := c.do(MsgPrepare, Prepare{Rel: rel, Size: size}, nil, MsgPrepareOK, nil)
	return err
}

// WriteChunk lands one chunk at off. sha256hex is the digest of data the
// server verifies before writing; it refuses a chunk without one.
func (c *Client) WriteChunk(rel string, off int64, data []byte, sha256hex string) error {
	_, err := c.do(MsgWrite, Write{Rel: rel, Off: off, SHA256: sha256hex}, data, MsgWriteOK, nil)
	return err
}

// WriteWhole lands data as the whole of rel, at offset 0. A daemon that
// finds rel is exactly data once it has landed merges it at the door and
// answers its digest, which the door has checked against sha256hex;
// merged is "" from a daemon that did not (rel was longer than data, or
// the daemon predates the whole-file Write), and the caller then merges
// separately.
func (c *Client) WriteWhole(rel string, data []byte, sha256hex string) (merged string, err error) {
	var resp WriteOK
	if _, err := c.do(MsgWrite, Write{Rel: rel, SHA256: sha256hex, Whole: true}, data, MsgWriteOK, &resp); err != nil {
		return "", err
	}
	return resp.SHA256, nil
}

// HashChunk asks the server for the digest of a byte range. present is
// false when the file is absent or shorter than the range.
func (c *Client) HashChunk(rel string, off, n int64) (present bool, sha256hex string, err error) {
	var resp HashOK
	if _, err := c.do(MsgHash, Hash{Rel: rel, Off: off, N: n}, nil, MsgHashOK, &resp); err != nil {
		return false, "", err
	}
	return resp.Present, resp.SHA256, nil
}

// Merge runs the verified merge server-side and returns the whole-file
// digest. A chunk mismatch surfaces as *RemoteError with
// CodeChunkMismatch and the chunk index. The chunk mover sends it only
// for a file with chunks that survived from an earlier attempt: a
// one-chunk file is merged by its Write, and a multi-chunk file one
// attempt lands whole is digested client-side as its chunks are accepted.
func (c *Client) Merge(rel string, chunks []MergeChunk) (string, error) {
	var resp MergeOK
	if _, err := c.do(MsgMerge, Merge{Rel: rel, Chunks: chunks}, nil, MsgMergeOK, &resp); err != nil {
		return "", err
	}
	return resp.SHA256, nil
}

// Dispatch submits one function invocation to the facility's compute
// pool and returns the facility-side task ID.
func (c *Client) Dispatch(function string, args map[string]any) (string, error) {
	var resp DispatchOK
	if _, err := c.do(MsgDispatch, Dispatch{Function: function, Args: args}, nil, MsgDispatchOK, &resp); err != nil {
		return "", err
	}
	return resp.Task, nil
}

// Job reports one dispatched task's current state.
func (c *Client) Job(task string) (JobOK, error) { return c.WaitJob(task, 0) }

// WaitJob asks the daemon to answer once the task is terminal or wait has
// passed, whichever is first, and returns the task's state then — ACTIVE
// when the hold ran out. wait is capped at half the op timeout, so the
// answer arrives inside the op's deadline; the daemon caps it further
// (MaxJobHold). A wait under a millisecond is a plain Job.
func (c *Client) WaitJob(task string, wait time.Duration) (JobOK, error) {
	var resp JobOK
	req := Job{Task: task, WaitMs: min(wait, c.timeout()/2).Milliseconds()}
	if _, err := c.do(MsgJob, req, nil, MsgJobOK, &resp); err != nil {
		return JobOK{}, err
	}
	return resp, nil
}

// Status fetches the facility's status; fill > 0 asks for that many
// opaque body bytes, turning the exchange into a goodput sample. It
// returns the status and how many fill bytes actually arrived.
func (c *Client) Status(fill int) (StatusOK, int, error) {
	var resp StatusOK
	body, err := c.do(MsgStatus, Status{Fill: fill}, nil, MsgStatusOK, &resp)
	if err != nil {
		return StatusOK{}, 0, err
	}
	return resp, len(body), nil
}

// Ping measures one status round trip.
func (c *Client) Ping() (time.Duration, error) {
	start := time.Now()
	if _, _, err := c.Status(0); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// IsRemoteCode reports whether err is a *RemoteError with the given
// code — the test transfers use it to tell a checksum rejection from a
// dead socket.
func IsRemoteCode(err error, code string) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Code == code
}
