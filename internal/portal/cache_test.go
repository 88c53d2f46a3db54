package portal

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"picoprobe/internal/search"
)

func newGetReq(url string) *http.Request { return httptest.NewRequest("GET", url, nil) }

func newRecorder() *httptest.ResponseRecorder { return httptest.NewRecorder() }

func cachedServer(t *testing.T) (*Server, *search.Index) {
	t.Helper()
	ix, iss, _ := seeded(t)
	srv, err := NewServer(Config{Index: ix, Issuer: iss, Cache: &CacheConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	return srv, ix
}

// TestETagMatch covers RFC 7232 If-None-Match semantics: lists, weak
// validators on either side, the * wildcard, commas inside opaque-tags,
// and malformed input (which must never match).
func TestETagMatch(t *testing.T) {
	for _, tc := range []struct {
		header, etag string
		want         bool
	}{
		{``, `"pp-1"`, false},                    // missing header
		{`"pp-1"`, `"pp-1"`, true},               // exact
		{`"pp-2"`, `"pp-1"`, false},              // different tag
		{`"a", "pp-1"`, `"pp-1"`, true},          // list, later element
		{`"a","b" , "c"`, `"pp-1"`, false},       // list, no match
		{`W/"pp-1"`, `"pp-1"`, true},             // weak request tag
		{`"pp-1"`, `W/"pp-1"`, true},             // weak current tag
		{`W/"pp-1"`, `W/"pp-1"`, true},           // both weak
		{`*`, `"anything"`, true},                // wildcard
		{`"x,y", "pp-1"`, `"pp-1"`, true},        // comma inside opaque-tag
		{`"x,y"`, `"pp-1"`, false},               // comma tag alone, no match
		{`pp-1`, `"pp-1"`, false},                // unquoted = malformed
		{`"unterminated`, `"pp-1"`, false},       // unterminated
		{`"ok" garbage "pp-1"`, `"pp-1"`, false}, // malformed after valid tag
		{`W/`, `"pp-1"`, false},                  // bare weak prefix
		{`  ,, "pp-1"`, `"pp-1"`, true},          // leading list noise
		{`"pp-10"`, `"pp-1"`, false},             // prefix must not match
	} {
		if got := etagMatch(tc.header, tc.etag); got != tc.want {
			t.Errorf("etagMatch(%q, %q) = %v, want %v", tc.header, tc.etag, got, tc.want)
		}
	}
}

// FuzzETagMatch throws arbitrary If-None-Match values at the matcher a
// revalidating client reaches on every request. It has no second
// implementation to differ from, so it checks what must hold for any
// header: a match needs the current opaque tag or a wildcard somewhere in
// it; weakness on either side changes nothing; the current tag in front
// matches whatever follows; and the current tag appended matches exactly
// when a wildcard appended does — when the header parsed to its end or
// had matched already.
func FuzzETagMatch(f *testing.F) {
	for _, h := range []string{``, `*`, `"pp-1"`, `W/"pp-1"`, `"a", "pp-1"`, `"x,y", "pp-1"`, `pp-1`,
		`"unterminated`, `"ok" garbage "pp-1"`, `W/`, `  ,, "pp-1"`, `"pp-10"`, "\"a\x7f\", \"pp-1\"", "\"\xff\"\t,W/\"pp-1\""} {
		f.Add(h, uint64(1))
	}
	f.Fuzz(func(t *testing.T, header string, epoch uint64) {
		etag := epochTag(epoch)
		got := etagMatch(header, etag)
		if got && !strings.Contains(header, etag) && !strings.Contains(header, "*") {
			t.Fatalf("etagMatch(%q, %s) matched a header holding neither the tag nor a wildcard", header, etag)
		}
		if etagMatch(header, "W/"+etag) != got {
			t.Fatalf("etagMatch(%q, ·): weak and strong current tag disagree", header)
		}
		for _, front := range []string{etag + "," + header, "W/" + etag + " " + header} {
			if !etagMatch(front, etag) {
				t.Fatalf("etagMatch(%q, %s) = false with the current tag in front", front, etag)
			}
		}
		if a, b := etagMatch(header+","+etag, etag), etagMatch(header+",*", etag); a != b || (got && !a) {
			t.Fatalf("etagMatch(%q + tag) = %v, (+ wildcard) = %v, alone = %v", header, a, b, got)
		}
	})
}

// TestConditionalGET is the table-driven endpoint-level test: a matching
// If-None-Match gets 304 with no body, a stale or malformed one gets the
// full 200, and bodiless 304s still carry the validator.
func TestConditionalGET(t *testing.T) {
	srv, ix := cachedServer(t)
	cur := epochTag(ix.Epoch())
	for _, tc := range []struct {
		name, inm  string
		wantStatus int
	}{
		{"no-header", "", 200},
		{"current", cur, 304},
		{"weak-current", "W/" + cur, 304},
		{"wildcard", "*", 304},
		{"list-with-current", `"other", ` + cur, 304},
		{"stale", `"pp-0"`, 200},
		{"malformed", "pp-nonsense", 200},
		{"list-all-stale", `"a", "b"`, 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := newGetReq("/api/search?q=film")
			if tc.inm != "" {
				req.Header.Set("If-None-Match", tc.inm)
			}
			rec := newRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d", rec.Code, tc.wantStatus)
			}
			if rec.Header().Get("ETag") != cur {
				t.Errorf("ETag = %q, want %q", rec.Header().Get("ETag"), cur)
			}
			if tc.wantStatus == 304 {
				if rec.Body.Len() != 0 {
					t.Errorf("304 carried a %d-byte body", rec.Body.Len())
				}
				if got := rec.Header().Get("X-PP-Cache"); got != "revalidated" {
					t.Errorf("X-PP-Cache = %q", got)
				}
			}
		})
	}
}

// TestCacheEpochInvalidates pins the staleness contract: once a mutation
// completes, the old validator must stop producing 304s and the cached
// body must be re-rendered.
func TestCacheEpochInvalidates(t *testing.T) {
	srv, ix := cachedServer(t)
	res1, body1 := get(t, srv, "/api/search?q=film", "")
	old := res1.Header.Get("ETag")
	if old == "" {
		t.Fatal("no ETag on cacheable response")
	}
	if err := ix.Ingest(search.Entry{
		ID: "exp-3", Text: "another film record",
		Fields: map[string]string{"kind": "hyperspectral"},
		Date:   time.Date(2023, 6, 7, 0, 0, 0, 0, time.UTC),
	}); err != nil {
		t.Fatal(err)
	}
	req := newGetReq("/api/search?q=film")
	req.Header.Set("If-None-Match", old)
	rec := newRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code == 304 {
		t.Fatal("304 for a validator predating a completed ingest")
	}
	if rec.Header().Get("ETag") == old {
		t.Fatal("epoch validator did not advance after ingest")
	}
	if rec.Body.String() == body1 {
		t.Fatal("body not re-rendered after invalidating ingest")
	}
}

// TestCacheReplayByteIdentical is the writeJSON interaction regression
// (pooled response buffers): a cached replay must be byte-identical to
// the first render — same body, same Content-Length header, same
// Content-Type — even after unrelated requests have churned the buffer
// pool that backed the original render.
func TestCacheReplayByteIdentical(t *testing.T) {
	srv, _ := cachedServer(t)
	res1, body1 := get(t, srv, "/api/search?q=film", "")
	if res1.Header.Get("X-PP-Cache") != "miss" {
		t.Fatalf("first read: X-PP-Cache = %q, want miss", res1.Header.Get("X-PP-Cache"))
	}
	// Churn the writeJSON buffer pool with different-sized responses so a
	// memoized body aliasing pooled memory would be overwritten.
	for i := 0; i < 50; i++ {
		get(t, srv, "/api/record/exp-1", "")
		get(t, srv, fmt.Sprintf("/api/search?q=film&limit=%d", 1+i%20), "")
	}
	res2, body2 := get(t, srv, "/api/search?q=film", "")
	if res2.Header.Get("X-PP-Cache") != "hit" {
		t.Fatalf("second read: X-PP-Cache = %q, want hit", res2.Header.Get("X-PP-Cache"))
	}
	if body2 != body1 {
		t.Fatal("cached replay bytes differ from the original render")
	}
	for _, h := range []string{"Content-Length", "Content-Type", "ETag"} {
		if res1.Header.Get(h) != res2.Header.Get(h) {
			t.Errorf("%s: %q (render) vs %q (replay)", h, res1.Header.Get(h), res2.Header.Get(h))
		}
	}
	if cl := res2.Header.Get("Content-Length"); cl != strconv.Itoa(len(body2)) {
		t.Errorf("replay Content-Length %s for %d-byte body", cl, len(body2))
	}
}

// TestCacheDisabledByteIdentical pins the opt-in contract: with no
// serving-layer config the responses carry none of the new headers and
// are byte-identical to a second uncached server's.
func TestCacheDisabledByteIdentical(t *testing.T) {
	ix1, iss, _ := seeded(t)
	plain1, err := NewServer(Config{Index: ix1, Issuer: iss})
	if err != nil {
		t.Fatal(err)
	}
	ix2, iss2, _ := seeded(t)
	plain2, err := NewServer(Config{Index: ix2, Issuer: iss2})
	if err != nil {
		t.Fatal(err)
	}
	for _, url := range []string{"/api/search?q=film", "/", "/api/facets", "/api/record/exp-1"} {
		r1, b1 := get(t, plain1, url, "")
		_, b2 := get(t, plain2, url, "")
		if b1 != b2 {
			t.Errorf("%s: plain servers disagree", url)
		}
		for _, h := range []string{"ETag", "X-PP-Cache", "Vary"} {
			if v := r1.Header.Get(h); v != "" {
				t.Errorf("%s: serving-layer header %s=%q leaked into a plain server", url, h, v)
			}
		}
	}
}

// TestCacheChurnHammer is the race hammer: concurrent cached and
// conditional reads race IngestBatch churn, asserting the two serving
// invariants the design paid for:
//
//  1. Validator consistency — every body served under ETag E is
//     byte-identical to every other body served under E (checked via a
//     global etag→hash table).
//  2. No stale 304s — a 304's validator epoch must lie within the index
//     epoch window observed around the request (epochs only advance, so
//     a 304 for an epoch below the request's starting epoch would mean a
//     completed mutation was revalidated away).
//
// Run under -race this also shakes out data races across the
// cache/epoch/singleflight machinery (the CI race matrix includes this
// package).
func TestCacheChurnHammer(t *testing.T) {
	srv, ix := cachedServer(t)
	paths := []string{
		"/api/search?q=film",
		"/api/search?q=gold",
		"/api/search",
		"/api/facets",
		"/?q=film",
	}

	var bodies sync.Map // etag -> uint64 body hash
	stop := make(chan struct{})
	var readersWG, writerWG sync.WaitGroup

	// Churn writer: completed batch mutations advance the epoch.
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			batch := []search.Entry{{
				ID:     fmt.Sprintf("churn-%d", rng.Intn(8)),
				Text:   fmt.Sprintf("film churn record %d", i),
				Fields: map[string]string{"kind": "hyperspectral"},
				Date:   time.Date(2023, 6, 10, 0, 0, i%60, 0, time.UTC),
			}}
			if err := ix.IngestBatch(batch); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	hash := func(s string) uint64 {
		h := fnv.New64a()
		h.Write([]byte(s))
		return h.Sum64()
	}
	tagEpoch := func(etag string) (uint64, bool) {
		v, ok := strings.CutPrefix(etag, `"pp-`)
		if !ok {
			return 0, false
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(v, `"`), 10, 64)
		return n, err == nil
	}

	const readers = 8
	for g := 0; g < readers; g++ {
		readersWG.Add(1)
		go func(seed int64) {
			defer readersWG.Done()
			rng := rand.New(rand.NewSource(seed))
			lastTag := ""
			for i := 0; i < 400; i++ {
				before := ix.Epoch()
				req := newGetReq(paths[rng.Intn(len(paths))])
				conditional := lastTag != "" && rng.Intn(3) == 0
				if conditional {
					req.Header.Set("If-None-Match", lastTag)
				}
				rec := newRecorder()
				srv.ServeHTTP(rec, req)
				after := ix.Epoch()
				etag := rec.Header().Get("ETag")
				switch rec.Code {
				case 304:
					n, ok := tagEpoch(etag)
					if !ok {
						t.Errorf("304 with unparseable ETag %q", etag)
						return
					}
					if n < before || n > after {
						t.Errorf("stale 304: validator epoch %d outside request window [%d,%d]", n, before, after)
						return
					}
				case 200:
					if etag == "" {
						// Bypass: unvalidated render, allowed to be anything.
						if rec.Header().Get("X-PP-Cache") != "bypass" {
							t.Errorf("200 with no ETag but X-PP-Cache=%q", rec.Header().Get("X-PP-Cache"))
							return
						}
						continue
					}
					if n, ok := tagEpoch(etag); !ok || n < before || n > after {
						t.Errorf("ETag %q epoch outside request window [%d,%d]", etag, before, after)
						return
					}
					key := etag + "\x1f" + req.URL.RequestURI()
					h := hash(rec.Body.String())
					if prev, loaded := bodies.LoadOrStore(key, h); loaded && prev.(uint64) != h {
						t.Errorf("two different bodies served under validator %s for %s", etag, req.URL)
						return
					}
					lastTag = etag
				default:
					t.Errorf("status %d", rec.Code)
					return
				}
			}
		}(int64(g) + 100)
	}

	// Let readers finish, then stop the churn writer.
	done := make(chan struct{})
	go func() { readersWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("hammer deadlocked")
	}
	close(stop)
	writerWG.Wait()
}

// TestCacheBypassUnvalidated pins the bypass contract: a response too
// large to memoize is served without any validator, so clients can never
// revalidate against bytes the cache does not hold.
func TestCacheBypassUnvalidated(t *testing.T) {
	ix, iss, _ := seeded(t)
	srv, err := NewServer(Config{Index: ix, Issuer: iss, Cache: &CacheConfig{maxBody: 8}})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := get(t, srv, "/api/search?q=film", "")
	if res.StatusCode != 200 {
		t.Fatalf("status %d", res.StatusCode)
	}
	if res.Header.Get("ETag") != "" {
		t.Fatal("oversized response carried a validator")
	}
	if res.Header.Get("X-PP-Cache") != "bypass" {
		t.Fatalf("X-PP-Cache = %q, want bypass", res.Header.Get("X-PP-Cache"))
	}
	// Errors are never validated either.
	res2, _ := get(t, srv, "/api/record/no-such-id", "")
	if res2.StatusCode != 404 {
		t.Fatalf("status %d", res2.StatusCode)
	}
	if res2.Header.Get("ETag") != "" {
		t.Fatal("404 carried a validator")
	}
}
