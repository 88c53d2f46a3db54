package portal

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"picoprobe/internal/flows"
)

// Live push (DESIGN.md §13). Instead of polling /api/flows, portal
// clients hold one SSE stream at /api/events and receive status
// transitions as they happen. The Hub is a fan-out
// broadcaster built for slow-client safety: every subscriber owns a
// bounded queue, Publish never blocks — a subscriber whose queue is full
// is evicted (its channel closed, its connection torn down) so one
// stalled reader cannot delay the beam line's status fan-out to everyone
// else. The shipped producer is the engine's tap
// (flows.Engine.SetEventSink through FlowSink), which publishes "run"
// events; Publish is the seam for any other — a live facility registry
// would publish "facility" events through it.

// Hub broadcasts server-sent events to any number of subscribers.
// Configure the exported knobs before serving; they must not change
// afterwards.
type Hub struct {
	// Queue is each subscriber's buffered event capacity (default 64).
	// A subscriber that falls this far behind is evicted.
	Queue int
	// WriteTimeout bounds one event write to a client (default 5s). A
	// reader stalled longer than this has its connection torn down.
	WriteTimeout time.Duration
	// Heartbeat is the keep-alive comment interval (default 15s); it
	// holds idle connections open through proxies and lets the server
	// notice dead peers.
	Heartbeat time.Duration

	mu     sync.Mutex
	subs   map[*hubClient]struct{}
	nextID uint64

	// onEvict, when non-nil, observes slow-client evictions (metrics).
	onEvict func()
}

type hubClient struct {
	ch chan []byte
}

// NewHub returns a hub with default tuning.
func NewHub() *Hub {
	return &Hub{Queue: 64, WriteTimeout: 5 * time.Second, Heartbeat: 15 * time.Second, subs: map[*hubClient]struct{}{}}
}

// Clients returns the number of connected subscribers.
func (h *Hub) Clients() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// Publish broadcasts one event, JSON-encoding data into an SSE frame.
// It never blocks: subscribers whose queues are full are evicted.
func (h *Hub) Publish(event string, data any) {
	payload, err := json.Marshal(data)
	if err != nil {
		return // an unencodable event is dropped, not fatal
	}
	h.mu.Lock()
	h.nextID++
	var buf bytes.Buffer
	buf.Grow(len(payload) + len(event) + 32)
	buf.WriteString("id: ")
	buf.WriteString(strconv.FormatUint(h.nextID, 10))
	buf.WriteString("\nevent: ")
	buf.WriteString(event)
	buf.WriteString("\ndata: ")
	buf.Write(payload)
	buf.WriteString("\n\n")
	frame := buf.Bytes()
	evicted := 0
	for c := range h.subs {
		select {
		case c.ch <- frame:
		default:
			delete(h.subs, c)
			close(c.ch) // the handler sees the close and tears down
			evicted++
		}
	}
	onEvict := h.onEvict
	h.mu.Unlock()
	if onEvict != nil {
		for i := 0; i < evicted; i++ {
			onEvict()
		}
	}
}

func (h *Hub) subscribe() *hubClient {
	c := &hubClient{ch: make(chan []byte, max(h.Queue, 1))}
	h.mu.Lock()
	h.subs[c] = struct{}{}
	h.mu.Unlock()
	return c
}

// setEvictHook wires the eviction observer (the portal's metrics).
func (h *Hub) setEvictHook(fn func()) {
	h.mu.Lock()
	h.onEvict = fn
	h.mu.Unlock()
}

// unsubscribe removes a client; idempotent with Publish-side eviction.
func (h *Hub) unsubscribe(c *hubClient) {
	h.mu.Lock()
	if _, live := h.subs[c]; live {
		delete(h.subs, c)
		close(c.ch)
	}
	h.mu.Unlock()
}

// FlowSink adapts the hub for flows.Engine.SetEventSink: every run
// transition becomes a "run" event.
func (h *Hub) FlowSink() func(flows.RunEvent) {
	return func(ev flows.RunEvent) { h.Publish("run", ev) }
}

// handleEvents serves one SSE subscription until the client disconnects,
// stalls past the write timeout, or is evicted for falling behind.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	hub := s.cfg.Events
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	hd := w.Header()
	hd.Set("Content-Type", "text/event-stream")
	hd.Set("Cache-Control", "no-cache")
	hd.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	c := hub.subscribe()
	defer hub.unsubscribe(c)
	s.met.sseClients.Inc()
	defer s.met.sseClients.Dec()

	rc := http.NewResponseController(w)
	hb := time.NewTicker(hub.Heartbeat)
	defer hb.Stop()
	write := func(p []byte) bool {
		rc.SetWriteDeadline(time.Now().Add(hub.WriteTimeout))
		if _, err := w.Write(p); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	if !write([]byte(": connected\n\n")) {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case frame, live := <-c.ch:
			if !live {
				return // evicted as a slow client
			}
			if !write(frame) {
				return
			}
			s.met.sseEvents.Inc()
		case <-hb.C:
			if !write([]byte(": hb\n\n")) {
				return
			}
		}
	}
}
