package portal

import (
	"bytes"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Epoch-keyed response caching (DESIGN.md §13). The search index
// advances a monotonic epoch exactly once per completed mutation
// (search.Index.Epoch), so an unchanged epoch proves every derived
// response is still valid. The portal exploits that twice:
//
//   - Validation: every memoized response carries a strong ETag derived
//     from the epoch. A conditional GET whose If-None-Match matches the
//     *current* epoch is answered 304 without touching the index — the
//     cheapest possible request. Because the epoch is re-read per
//     request, a 304 is never issued once any mutation has completed.
//
//   - Memoization: hot rendered responses are kept in a bounded
//     generation map keyed by (route, URI, principal). The generation is
//     swapped wholesale when the epoch advances, so invalidation is one
//     pointer CAS, never a scan. Within a generation, the first renderer
//     wins (singleflight): concurrent misses for the same key wait for
//     the winner and replay its exact bytes. That makes the serving
//     contract exact — every response tagged with epoch E carries bytes
//     byte-identical to every other response tagged E for that key —
//     even while ingest churn is racing the render (a render that
//     straddles a publish may capture fresher data than its epoch, but
//     since all epoch-E responses replay the same body and the next
//     completed mutation retires E, no client ever revalidates into a
//     stale body).
//
// Responses that cannot uphold that contract — render failed, body over
// the memoization cap, generation already retired, cache full — are
// served unmemoized and carry no validator at all ("bypass"), so clients
// cannot revalidate against bytes the cache never pinned.

// CacheConfig enables the epoch-keyed response cache.
type CacheConfig struct {
	// maxBody bounds the size of a memoizable body (0 = 1 MiB); the
	// package's tests shrink it to force the bypass.
	maxBody int
}

// cacheMaxEntries bounds the number of memoized responses per epoch
// generation. Beyond it, responses are served uncached.
const cacheMaxEntries = 1024

func (c CacheConfig) withDefaults() CacheConfig {
	if c.maxBody <= 0 {
		c.maxBody = 1 << 20
	}
	return c
}

// respCache is the two-level cache: an atomic pointer to the current
// epoch generation, each generation a bounded lock-free map.
type respCache struct {
	cfg CacheConfig
	cur atomic.Pointer[cacheGen]
}

type cacheGen struct {
	epoch uint64
	n     atomic.Int64 // entries stored (bounds the map)
	m     sync.Map     // key string -> *cacheEntry
}

// cacheEntry is one memoized response. done is closed once the winner
// has either filled the entry (ok=true) or declined to (ok=false).
type cacheEntry struct {
	done   chan struct{}
	ok     bool
	header http.Header
	body   []byte
}

func newRespCache(cfg CacheConfig) *respCache {
	c := &respCache{cfg: cfg.withDefaults()}
	c.cur.Store(&cacheGen{})
	return c
}

// gen returns the generation for the given epoch, retiring older ones.
// A nil return means the cache has already moved past this epoch (the
// caller raced a fresher request) and the response must bypass.
func (c *respCache) gen(epoch uint64) *cacheGen {
	g := c.cur.Load()
	for g.epoch < epoch {
		ng := &cacheGen{epoch: epoch}
		if c.cur.CompareAndSwap(g, ng) {
			return ng
		}
		g = c.cur.Load()
	}
	if g.epoch != epoch {
		return nil
	}
	return g
}

// epochTag renders the strong validator for an index epoch.
func epochTag(epoch uint64) string {
	return `"pp-` + strconv.FormatUint(epoch, 10) + `"`
}

// etagMatch reports whether an If-None-Match header value matches the
// given current entity-tag, per RFC 7232: a comma-separated list of
// entity-tags compared weakly (a W/ prefix on either side is ignored),
// or "*" which matches any current representation. An empty header never
// matches.
func etagMatch(header, etag string) bool {
	opaque := strings.TrimPrefix(etag, "W/")
	rest := header
	for {
		rest = strings.TrimLeft(rest, " \t,")
		if rest == "" {
			return false
		}
		if rest[0] == '*' {
			return true
		}
		tag, remainder, ok := scanETag(rest)
		if !ok {
			// Malformed from here on; a broken validator never matches.
			return false
		}
		if strings.TrimPrefix(tag, "W/") == opaque {
			return true
		}
		rest = remainder
	}
}

// scanETag consumes one entity-tag (with optional W/ prefix) from the
// front of s, returning the tag, the remainder, and whether it parsed.
func scanETag(s string) (tag, rest string, ok bool) {
	start := 0
	if strings.HasPrefix(s, "W/") {
		start = 2
	}
	if start >= len(s) || s[start] != '"' {
		return "", "", false
	}
	for i := start + 1; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			return s[:i+1], s[i+1:], true
		case c == 0x21 || (c >= 0x23 && c <= 0x7E) || c >= 0x80:
			// etagc: anything printable except DQUOTE.
		default:
			return "", "", false
		}
	}
	return "", "", false
}

// captureWriter records a handler's full response — status, headers,
// body — without touching the real connection. The body buffer is owned
// by the capture: handlers that write from pooled buffers (writeJSON)
// recycle theirs immediately after ServeHTTP returns, so the memoized
// copy must never alias handler-owned memory.
type captureWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func newCaptureWriter() *captureWriter {
	return &captureWriter{header: make(http.Header, 4)}
}

func (c *captureWriter) Header() http.Header { return c.header }

func (c *captureWriter) WriteHeader(status int) {
	if c.status == 0 {
		c.status = status
	}
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.WriteHeader(http.StatusOK)
	return c.body.Write(p) // bytes.Buffer copies; p may be pooled
}

// writeCached emits a memoized response: captured headers, the exact
// memoized bytes, the epoch validator, and a Content-Length recomputed
// from the body it actually serves — writeJSON already sets one, and the
// replay path must agree with it byte-for-byte (shape_test pins this).
func writeCached(w http.ResponseWriter, header http.Header, body []byte, etag, result string) {
	h := w.Header()
	for k, vs := range header {
		h[k] = vs
	}
	h.Set("Content-Length", strconv.Itoa(len(body)))
	h.Set("ETag", etag)
	h.Set("X-PP-Cache", result)
	h.Set("Vary", "Authorization")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// withCache wraps a GET handler with conditional-GET validation and
// epoch-keyed memoization. Non-GET methods and disabled caching pass
// straight through, byte-identical to the unwrapped handler.
func (s *Server) withCache(route string, h http.HandlerFunc) http.HandlerFunc {
	if s.cache == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			h(w, r)
			return
		}
		epoch := s.cfg.Index.Epoch()
		etag := epochTag(epoch)
		if etagMatch(r.Header.Get("If-None-Match"), etag) {
			s.met.cacheEvents.With("revalidated").Inc()
			hd := w.Header()
			hd.Set("ETag", etag)
			hd.Set("X-PP-Cache", "revalidated")
			hd.Set("Vary", "Authorization")
			w.WriteHeader(http.StatusNotModified)
			return
		}
		gen := s.cache.gen(epoch)
		if gen == nil {
			// The cache has moved on to a newer epoch; render fresh with
			// no validator (see the bypass contract above).
			s.met.cacheEvents.With("bypass").Inc()
			w.Header().Set("X-PP-Cache", "bypass")
			h(w, r)
			return
		}
		key := route + "\x1f" + r.URL.RequestURI() + "\x1f" + s.principal(r)
		e := &cacheEntry{done: make(chan struct{})}
		if v, loaded := gen.m.LoadOrStore(key, e); loaded {
			e = v.(*cacheEntry)
			select {
			case <-e.done:
			case <-r.Context().Done():
				return
			}
			if e.ok {
				s.met.cacheEvents.With("hit").Inc()
				writeCached(w, e.header, e.body, etag, "hit")
				return
			}
			s.met.cacheEvents.With("bypass").Inc()
			w.Header().Set("X-PP-Cache", "bypass")
			h(w, r)
			return
		}
		// Miss: this request renders, memoizes, and serves its own copy.
		rec := newCaptureWriter()
		h(rec, r)
		if rec.status == http.StatusOK && rec.body.Len() <= s.cache.cfg.maxBody &&
			gen.n.Add(1) <= cacheMaxEntries {
			e.header = rec.header
			e.body = rec.body.Bytes()
			e.ok = true
		} else {
			gen.m.Delete(key)
		}
		close(e.done)
		if !e.ok {
			// Uncacheable render: pass the captured response through
			// untagged.
			s.met.cacheEvents.With("bypass").Inc()
			hd := w.Header()
			for k, vs := range rec.header {
				hd[k] = vs
			}
			hd.Set("X-PP-Cache", "bypass")
			if rec.status != 0 {
				w.WriteHeader(rec.status)
			}
			w.Write(rec.body.Bytes())
			return
		}
		s.met.cacheEvents.With("miss").Inc()
		writeCached(w, e.header, e.body, etag, "miss")
	}
}
