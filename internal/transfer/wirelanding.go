package transfer

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"picoprobe/internal/landing"
	"picoprobe/internal/wire"
)

// WireLanding lands a ChunkMover's chunks on remote facility daemons over
// the wire protocol: chunks go out as ranged writes (SHA-256 computed
// before the bytes leave the machine, re-checked by the daemon at the
// door). A file that is one chunk is merged by the write itself, which
// the daemon answers with the file's digest when the landed file is
// exactly the door-checked body; a multi-chunk file every chunk of which
// an attempt lands is digested here, each chunk folded in order once the
// daemon has accepted it, and closed by a size check. Only a file resumed
// across attempts is merged daemon-side, in one request. The
// destination endpoint's Root is the daemon's host:port. All resume state
// stays client-side, in the mover's manifests: a daemon that is SIGKILLed
// and restarted on the same storage root serves the resumed transfer with
// no recovery step, because the manifest plus remote range hashes
// reconstruct exactly which chunks survived.
type WireLanding struct {
	// Token authenticates wire sessions (empty against open servers).
	Token string
	// Dial overrides the dialer on every wire client (nil = plain TCP);
	// the netfault tests inject their wrapped dialer here.
	Dial func(addr string) (net.Conn, error)
	// Timeout is the per-op wire deadline (0 = wire.DefaultTimeout).
	Timeout time.Duration
	// BreakerCooldown is handed to every wire client (0 =
	// wire.DefaultBreakerCooldown); tests shrink it.
	BreakerCooldown time.Duration
	// RetryBackoff spaces the transfer service's attempt retries (nil =
	// 100 ms doubling to 5 s, full jitter): a daemon that is restarting
	// needs time, not three attempts in a microsecond. The clients' own
	// Backoff only spaces busy retries.
	RetryBackoff *wire.Backoff

	mu      sync.Mutex
	clients map[string]*wire.Client
}

// client returns the shared wire client for one daemon address. Clients
// pool sessions internally, so N chunk workers become N concurrent
// authenticated connections to the same daemon.
func (l *WireLanding) client(addr string) *wire.Client {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.clients == nil {
		l.clients = map[string]*wire.Client{}
	}
	c, ok := l.clients[addr]
	if !ok {
		c = &wire.Client{
			Addr: addr, Token: l.Token, Dial: l.Dial, Timeout: l.Timeout,
			BreakerCooldown: l.BreakerCooldown,
		}
		l.clients[addr] = c
	}
	return c
}

// close drops every pooled wire session.
func (l *WireLanding) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.clients {
		c.Close()
	}
	l.clients = nil
}

// defaultRetryBackoff spaces attempt retries when RetryBackoff is nil.
var defaultRetryBackoff = &wire.Backoff{Base: 100 * time.Millisecond, Max: 5 * time.Second}

// DefaultChunkRetries is how many times one chunk rejected by the
// daemon's checksum check is re-sent before the attempt fails.
// Re-reading and re-shipping one chunk costs one chunk; burning a whole
// service-attempt retry costs a full resume pass.
const DefaultChunkRetries = 2

// wireSink lands chunks on a facility daemon, which serves each request
// from its own landing store — the same disk code the local sink calls
// directly. Stat and Prepare are the client's own.
type wireSink struct {
	*wire.Client
}

// chunkPool recycles the buffers wireSink.Write reads source ranges into:
// a buffer goes back once WriteChunk has returned, when the bytes are on
// the socket or the send has failed. One too small for the chunk at hand
// is dropped.
var chunkPool sync.Pool

// Write reads one source range, hashes it, and lands it on the daemon as
// a ranged write; the daemon re-hashes the received bytes and refuses a
// mismatch, so a chunk corrupted past the frame CRC still never reaches
// the destination file. A checksum rejection is re-sent (fresh read,
// fresh hash) up to DefaultChunkRetries times. A whole span goes out as a
// whole-file write, and is merged only if the daemon answers with the
// digest sent; a daemon that answers none leaves the file to Merge. The
// bytes the daemon accepted are folded into f before the buffer is
// recycled; a rejected buffer never is.
func (s wireSink) Write(rel string, sp chunkSpan, src io.ReaderAt, f *fold) (string, bool, error) {
	bufp, _ := chunkPool.Get().(*[]byte)
	if bufp == nil || int64(cap(*bufp)) < sp.N {
		b := make([]byte, sp.N)
		bufp = &b
	}
	defer chunkPool.Put(bufp)
	buf := (*bufp)[:sp.N]
	for resend := 0; ; resend++ {
		if _, err := io.ReadFull(io.NewSectionReader(src, sp.Off, sp.N), buf); err != nil {
			return "", false, fmt.Errorf("transfer: read chunk @%d: %w", sp.Off, err)
		}
		h := sha256.Sum256(buf)
		sum := hex.EncodeToString(h[:])
		var merged string
		var err error
		if sp.Whole {
			merged, err = s.WriteWhole(rel, buf, sum)
		} else {
			err = s.WriteChunk(rel, sp.Off, buf, sum)
		}
		if err == nil {
			f.add(sp.Index, buf)
			return sum, merged == sum, nil
		}
		if resend < DefaultChunkRetries && wire.IsRemoteCode(err, wire.CodeChecksum) {
			continue
		}
		return "", false, fmt.Errorf("transfer: wire chunk %s @%d: %w", rel, sp.Off, err)
	}
}

func (s wireSink) Hash(rel string, off, n int64) (string, bool, error) {
	present, sum, err := s.HashChunk(rel, off, n)
	return sum, present, err
}

// Merge runs the verified merge on the daemon. Its chunk-mismatch
// rejection names the offending chunk, which becomes badChunk.
func (s wireSink) Merge(rel string, chunks []landing.Chunk) (string, int, error) {
	sum, err := s.Client.Merge(rel, chunks)
	var re *wire.RemoteError
	if errors.As(err, &re) && re.Code == wire.CodeChunkMismatch && re.Chunk >= 0 && re.Chunk < len(chunks) {
		return "", re.Chunk, nil
	}
	if err != nil {
		return "", -1, err
	}
	return sum, -1, nil
}
