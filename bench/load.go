package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// The instrument stand-in. Load is sized for two vCPUs: one scheduler
// goroutine closing files, one poller connection watching for them in the
// portal, one reader connection asking queries — nothing else belongs to
// the generator.

// newConn returns a client that keeps exactly one keep-alive connection.
func newConn() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}
}

// poller watches for closed files becoming queryable: every pollStep it
// asks GET /api/record/{id} for the oldest outstanding file and, on a
// 200, walks down the queue until the first miss. Files become visible
// in close order — the pipeline runs one batch at a time, in settle
// order — so one request per tick is enough; checkOrder verifies that
// assumption after the run instead of paying for it with load.
type poller struct {
	base   string
	client *http.Client

	mu    sync.Mutex
	queue []*fileRec

	seen chan *fileRec // every file, once visible or failed
	stop chan struct{}
	done chan struct{}

	// cache counts the poller's own responses by X-PP-Cache value, so the
	// portal's cache accounting can be read net of the instrument.
	cache map[string]int
}

func newPoller(base string, capacity int) *poller {
	p := &poller{
		base: base, client: newConn(),
		seen:  make(chan *fileRec, capacity), // sized to the number of sends
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		cache: map[string]int{},
	}
	go p.run()
	return p
}

// watch queues a closed file. The queue's mutex orders the scheduler's
// writes to f before the poller's first read of it.
func (p *poller) watch(f *fileRec) {
	p.mu.Lock()
	p.queue = append(p.queue, f)
	p.mu.Unlock()
}

func (p *poller) head() *fileRec {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.queue) == 0 {
		return nil
	}
	return p.queue[0]
}

func (p *poller) pop() {
	p.mu.Lock()
	p.queue = p.queue[1:]
	p.mu.Unlock()
}

func (p *poller) run() {
	defer close(p.done)
	tick := time.NewTicker(pollStep)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
		for f := p.head(); f != nil; f = p.head() {
			if p.queryable(f.id) {
				f.visible = time.Now()
			} else if time.Since(f.due) > fileDeadline {
				f.failed = true
			} else {
				break
			}
			p.pop()
			p.seen <- f
		}
	}
}

func (p *poller) queryable(id string) bool {
	resp, err := p.client.Get(p.base + "/api/record/" + id)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	p.cache[resp.Header.Get("X-PP-Cache")]++
	return resp.StatusCode == http.StatusOK
}

// await blocks until n more files have been seen.
func (p *poller) await(n int) {
	for range n {
		<-p.seen
	}
}

func (p *poller) close() {
	close(p.stop)
	<-p.done
	p.client.CloseIdleConnections()
}

// closeFile is "the instrument closed the file": a rename from the
// staging directory into the watched one, so nothing is written during
// the run. keep hard-links instead, leaving the staged file for the next
// set-up repeat; the watcher sees a new settled file either way.
func closeFile(r *rig, p *poller, f *fileRec, due time.Time, keep bool) error {
	issued := time.Now()
	appear := os.Rename
	if keep {
		appear = os.Link
	}
	if err := appear(filepath.Join(r.stageDir, f.name), filepath.Join(r.watchDir, f.name)); err != nil {
		return err
	}
	f.due, f.issued = due, issued
	p.watch(f)
	return nil
}

// runBurst closes files at one instant, half-way between two watcher
// polls, and returns once all of them are queryable (or failed).
func runBurst(r *rig, p *poller, files []*fileRec, notBefore time.Time, keep bool) error {
	due := r.nextMidPoll(notBefore)
	time.Sleep(time.Until(due))
	for _, f := range files {
		if err := closeFile(r, p, f, due, keep); err != nil {
			return err
		}
	}
	p.await(len(files))
	return nil
}

// runOpenLoop closes one file every spacing regardless of progress, then
// waits for the stragglers.
func runOpenLoop(r *rig, p *poller, files []*fileRec, start time.Time, spacing time.Duration) error {
	for i, due := range schedule(start, spacing, len(files)) {
		time.Sleep(time.Until(due))
		if err := closeFile(r, p, files[i], due, false); err != nil {
			return err
		}
	}
	p.await(len(files))
	return nil
}

// query is one reader request and its outcome.
type query struct {
	due, sent time.Time
	// late is how long after it could have been sent — its due instant,
	// or the previous answer if that came later — the request went out:
	// the generator's own lateness, net of the portal holding the
	// connection.
	late    time.Duration
	latency time.Duration // from due, so a stalled connection charges the requests queued behind it
	cache   string        // X-PP-Cache
	ok      bool          // 200 or 304 with a parseable body
}

// reader is the open-loop portal client: one request every readerPeriod
// on one connection, from a seeded sequence, until stopped.
type reader struct {
	base     string
	client   *http.Client
	requests []request
	etags    map[string]string // path → ETag last seen
	queries  []query
	stop     chan struct{}
	done     chan struct{}
}

func startReader(base string, requests []request, start time.Time) *reader {
	rd := &reader{
		base: base, client: newConn(), requests: requests,
		etags:   map[string]string{},
		queries: make([]query, 0, len(requests)),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go rd.run(start)
	return rd
}

func (rd *reader) run(start time.Time) {
	defer close(rd.done)
	var free time.Time // when the connection last became free
	for i, req := range rd.requests {
		due := start.Add(time.Duration(i) * readerPeriod)
		select {
		case <-rd.stop:
			return
		case <-time.After(time.Until(due)):
		}
		q := query{due: due, sent: time.Now()}
		if free.After(due) {
			q.late = q.sent.Sub(free)
		} else {
			q.late = q.sent.Sub(due)
		}
		q.cache, q.ok = rd.get(req)
		free = time.Now()
		q.latency = free.Sub(due)
		rd.queries = append(rd.queries, q)
	}
}

// get issues one request and checks the answer: 200, or 304 to a
// conditional request, and a body that parses (JSON on the API routes, a
// complete page on "/").
func (rd *reader) get(req request) (cache string, ok bool) {
	hr, err := http.NewRequest(http.MethodGet, rd.base+req.path, nil)
	if err != nil {
		return "", false
	}
	if etag := rd.etags[req.path]; req.conditional && etag != "" {
		hr.Header.Set("If-None-Match", etag)
	}
	resp, err := rd.client.Do(hr)
	if err != nil {
		return "", false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	cache = resp.Header.Get("X-PP-Cache")
	if err != nil {
		return cache, false
	}
	if etag := resp.Header.Get("ETag"); etag != "" {
		rd.etags[req.path] = etag
	}
	switch resp.StatusCode {
	case http.StatusNotModified:
		return cache, hr.Header.Get("If-None-Match") != ""
	case http.StatusOK:
		if strings.HasPrefix(req.path, "/api/") {
			return cache, json.Valid(body)
		}
		return cache, strings.HasSuffix(strings.TrimSpace(string(body)), "</html>")
	}
	return cache, false
}

func (rd *reader) close() {
	close(rd.stop)
	<-rd.done
	rd.client.CloseIdleConnections()
}

// scrapeCache reads the portal's own cache accounting from /metrics:
// picoprobe_cache_events_total by result.
func scrapeCache(base string) (map[string]float64, error) {
	client := newConn()
	defer client.CloseIdleConnections()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		rest, ok := strings.CutPrefix(line, `picoprobe_cache_events_total{result="`)
		if !ok {
			continue
		}
		result, value, ok := strings.Cut(rest, `"} `)
		if !ok {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(value, &v); err == nil {
			out[result] = v
		}
	}
	return out, nil
}
