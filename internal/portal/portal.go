// Package portal is the interactive data portal standing in for the Django
// Globus Portal Framework (DGPF): a net/http server over the search index
// that lets researchers query their experimental records by free text,
// kind and date (the paper's portal indexes experiments "by the time and
// date of the associated experiment"), browse facets, and open per-record
// pages that render the analysis products (intensity maps, spectra,
// annotated video) produced by the compute stage — the paper's Fig 2.
// Optional views expose the orchestration side: flow-run DAGs with the
// paper's active-vs-overhead timing decomposition (/flows), and the
// federation's per-facility load, queue depth and placements
// (/facilities), each with a JSON twin under /api. Requests may carry a
// bearer token; the authenticated principal scopes which records are
// discoverable, mirroring Globus Search's visibility-filtered queries.
package portal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"picoprobe/internal/auth"
	"picoprobe/internal/flows"
	"picoprobe/internal/obs"
	"picoprobe/internal/search"
)

// Config assembles a portal server.
type Config struct {
	// Index is the search index backing the portal.
	Index *search.Index
	// ArtifactRoot, when non-empty, serves analysis products (PNG plots,
	// annotated AVI) under /artifacts/.
	ArtifactRoot string
	// Issuer, when non-nil, authenticates bearer tokens to derive the
	// querying principal; anonymous requests see public records only.
	Issuer *auth.Issuer
	// Flows, when non-nil, exposes the engine's run records: /flows lists
	// runs, /flows/run/{id} renders one run's executed DAG with per-state
	// timings, and /api/flows[/run/{id}] serve the JSON twins.
	Flows *flows.Engine
	// Facilities, when non-nil, is mounted at /facilities and
	// /api/facilities behind admission control — the federation
	// registry's own view (facility.Registry.View): per-facility load,
	// queue depth and placements, and the JSON twin.
	Facilities http.Handler

	// The production serving layer (DESIGN.md §13). Every knob is
	// opt-in: with all four nil the portal serves exactly the responses
	// it always has, byte for byte.

	// Cache, when non-nil, enables epoch-keyed response caching on the
	// catalog routes: strong ETags derived from search.Index.Epoch, 304
	// answers for If-None-Match revalidations, and bounded memoization
	// of hot rendered responses invalidated only on epoch change.
	Cache *CacheConfig
	// Limits, when non-nil, enables admission control: per-principal
	// token-bucket rate limiting (429 + Retry-After) and a global
	// in-flight cap that sheds with 503 before latency collapses.
	Limits *LimitConfig
	// Events, when non-nil, serves live status pushes over SSE at
	// /api/events through this hub. Run transitions come from
	// flows.Engine.SetEventSink(hub.FlowSink()); any other producer
	// calls hub.Publish.
	Events *Hub
	// Metrics, when non-nil, instruments every route into this registry
	// and serves it at /metrics in Prometheus text format.
	Metrics *obs.Registry
}

// Server is the portal's http.Handler.
type Server struct {
	cfg        Config
	mux        *http.ServeMux
	cache      *respCache
	limiter    *limiter
	met        *portalMetrics
	instrument bool
}

// Title is the portal heading.
const Title = "Dynamic PicoProbe Data Portal"

// NewServer builds the portal.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Index == nil {
		return nil, fmt.Errorf("portal: nil index")
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux()}
	s.met = newPortalMetrics(cfg.Metrics)
	s.instrument = cfg.Metrics != nil
	if cfg.Cache != nil {
		s.cache = newRespCache(*cfg.Cache)
	}
	if cfg.Limits != nil {
		s.limiter = newLimiter(*cfg.Limits)
	}
	// The catalog routes are epoch-keyed (their content is derived
	// purely from the index), so they cache; the flow and facility views
	// read live engine state the index epoch does not cover, so they
	// only get admission control.
	s.route("/", s.handleIndex, cached|admitted|capped)
	s.route("/record/", s.handleRecord, cached|admitted|capped)
	s.route("/api/search", s.handleAPISearch, cached|admitted|capped)
	s.route("/api/facets", s.handleAPIFacets, cached|admitted|capped)
	s.route("/api/record/", s.handleAPIRecord, cached|admitted|capped)
	if cfg.Flows != nil {
		s.route("/flows", s.handleFlows, admitted|capped)
		s.route("/flows/run/", s.handleFlowRun, admitted|capped)
		s.route("/api/flows", s.handleAPIFlows, admitted|capped)
		s.route("/api/flows/run/", s.handleAPIFlowRun, admitted|capped)
	}
	if cfg.Facilities != nil {
		s.route("/facilities", cfg.Facilities.ServeHTTP, admitted|capped)
		s.route("/api/facilities", cfg.Facilities.ServeHTTP, admitted|capped)
	}
	if cfg.Events != nil {
		// SSE connections are long-lived: they pass the token bucket at
		// connect but must not pin in-flight slots for their lifetime.
		s.route("/api/events", s.handleEvents, admitted)
		cfg.Events.setEvictHook(s.met.sseEvicted.Inc)
	}
	if cfg.Metrics != nil {
		s.route("/metrics", cfg.Metrics.Handler().ServeHTTP, 0)
	}
	if cfg.ArtifactRoot != "" {
		fs := http.FileServer(http.Dir(cfg.ArtifactRoot))
		s.mux.Handle("/artifacts/", http.StripPrefix("/artifacts/", fs))
	}
	return s, nil
}

// Route composition flags: which layers of the serving stack wrap a
// handler (instrumentation always does when metrics are enabled).
const (
	cached   = 1 << iota // epoch-keyed response cache
	admitted             // per-principal token bucket
	capped               // global in-flight cap
)

// route registers one pattern behind the serving stack: metrics
// outermost (sheds and 429s must be counted and timed too), then
// admission, then the epoch cache, then the handler.
func (s *Server) route(pattern string, h http.HandlerFunc, flags int) {
	if flags&cached != 0 {
		h = s.withCache(pattern, h)
	}
	if flags&admitted != 0 {
		h = s.withAdmission(h, flags&capped != 0)
	}
	s.mux.HandleFunc(pattern, s.withMetrics(pattern, h))
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// principal extracts the authenticated identity from a bearer token, or ""
// for anonymous access.
func (s *Server) principal(r *http.Request) string {
	if s.cfg.Issuer == nil {
		return ""
	}
	h := r.Header.Get("Authorization")
	tok, ok := strings.CutPrefix(h, "Bearer ")
	if !ok {
		return ""
	}
	claims, err := s.cfg.Issuer.Verify(tok, auth.ScopePortal)
	if err != nil {
		return ""
	}
	return claims.Subject
}

// buildQuery translates request parameters into a search query.
func (s *Server) buildQuery(r *http.Request) search.Query {
	q := search.Query{
		Text:      r.FormValue("q"),
		Principal: s.principal(r),
		Limit:     20,
	}
	if kind := r.FormValue("kind"); kind != "" {
		q.Filters = map[string]string{"kind": kind}
	}
	if from := r.FormValue("from"); from != "" {
		if t, err := time.Parse("2006-01-02", from); err == nil {
			q.From = t
		}
	}
	if to := r.FormValue("to"); to != "" {
		if t, err := time.Parse("2006-01-02", to); err == nil {
			q.To = t.Add(24*time.Hour - time.Nanosecond)
		}
	}
	if n, err := strconv.Atoi(r.FormValue("limit")); err == nil && n > 0 && n <= 100 {
		q.Limit = n
	}
	if n, err := strconv.Atoi(r.FormValue("offset")); err == nil && n >= 0 {
		q.Offset = n
	}
	return q
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	q := s.buildQuery(r)
	// The result table renders five columns; projected hits skip the
	// per-hit payload and entry copies.
	hits, total, err := s.cfg.Index.SearchProjected(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	facets := s.cfg.Index.Facets(search.Query{Text: q.Text, Principal: q.Principal}, "kind")
	data := indexData{
		Title:  Title,
		Query:  q.Text,
		Kind:   r.FormValue("kind"),
		Total:  total,
		Facets: facets,
	}
	for _, h := range hits {
		data.Hits = append(data.Hits, hitData{
			ID:    h.ID,
			Date:  h.Date.Format("2006-01-02 15:04:05"),
			Kind:  h.Fields["kind"],
			Title: h.Fields["title"],
			Score: fmt.Sprintf("%.3f", h.Score),
		})
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := indexTmpl.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleRecord(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/record/")
	entry, ok := s.cfg.Index.Get(id, s.principal(r))
	if !ok {
		http.NotFound(w, r)
		return
	}
	var payload map[string]any
	if len(entry.Payload) > 0 {
		if err := json.Unmarshal(entry.Payload, &payload); err != nil {
			payload = map[string]any{"error": "unreadable payload"}
		}
	}
	data := recordData{
		Title: Title,
		ID:    entry.ID,
		Date:  entry.Date.Format(time.RFC1123),
		Kind:  entry.Fields["kind"],
	}
	// Stable ordering for the metadata table.
	for _, k := range sortedKeys(entry.Fields) {
		data.Fields = append(data.Fields, kv{K: k, V: entry.Fields[k]})
	}
	for _, k := range sortedKeys(entry.Numbers) {
		data.Fields = append(data.Fields, kv{K: k, V: fmt.Sprintf("%g", entry.Numbers[k])})
	}
	if products, ok := payload["products"].([]any); ok {
		for _, p := range products {
			if m, ok := p.(map[string]any); ok {
				path, _ := m["path"].(string)
				kind, _ := m["kind"].(string)
				name, _ := m["name"].(string)
				pd := productData{Name: name, Path: "/artifacts/" + path, Kind: kind}
				pd.IsImage = strings.HasSuffix(path, ".png")
				data.Products = append(data.Products, pd)
			}
		}
	}
	if raw, err := json.MarshalIndent(payload, "", "  "); err == nil {
		data.PayloadJSON = string(raw)
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := recordTmpl.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleAPISearch(w http.ResponseWriter, r *http.Request) {
	q := s.buildQuery(r)
	hits, total, err := s.cfg.Index.SearchProjected(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	type apiHit struct {
		ID     string            `json:"id"`
		Score  float64           `json:"score"`
		Date   time.Time         `json:"date"`
		Fields map[string]string `json:"fields"`
	}
	resp := struct {
		Total int      `json:"total"`
		Hits  []apiHit `json:"hits"`
	}{Total: total, Hits: make([]apiHit, 0, len(hits))}
	for _, h := range hits {
		resp.Hits = append(resp.Hits, apiHit{ID: h.ID, Score: h.Score, Date: h.Date, Fields: h.Fields})
	}
	writeJSON(w, resp)
}

// handleAPIFacets serves the facet counts for one field (default
// "kind") scoped by the requesting principal — the JSON twin of the
// facet strip on the index page.
func (s *Server) handleAPIFacets(w http.ResponseWriter, r *http.Request) {
	field := r.FormValue("field")
	if field == "" {
		field = "kind"
	}
	facets := s.cfg.Index.Facets(search.Query{Text: r.FormValue("q"), Principal: s.principal(r)}, field)
	if facets == nil {
		facets = map[string]int{}
	}
	writeJSON(w, struct {
		Field  string         `json:"field"`
		Facets map[string]int `json:"facets"`
	}{Field: field, Facets: facets})
}

func (s *Server) handleAPIRecord(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/api/record/")
	entry, ok := s.cfg.Index.Get(id, s.principal(r))
	if !ok {
		http.Error(w, `{"error":"not found"}`, http.StatusNotFound)
		return
	}
	writeJSON(w, entry)
}

// jsonBufPool recycles response buffers across API requests; buffers that
// grew past poolBufMax (one unusually large response) are dropped rather
// than pinned forever.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const poolBufMax = 1 << 20

// writeJSON encodes v compactly into a pooled buffer and writes the
// response in one shot. Encoding before writing means an encode failure
// can still produce a clean 500 — the historical implementation streamed
// into the ResponseWriter and could only append an error to a committed
// 200 and a partial body.
func writeJSON(w http.ResponseWriter, v any) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= poolBufMax {
			buf.Reset()
			jsonBufPool.Put(buf)
		}
	}()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		w.Write([]byte(`{"error":"response encoding failed"}` + "\n"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.Write(buf.Bytes())
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

type indexData struct {
	Title  string
	Query  string
	Kind   string
	Total  int
	Hits   []hitData
	Facets map[string]int
}

type hitData struct {
	ID, Date, Kind, Title, Score string
}

type kv struct{ K, V string }

type productData struct {
	Name, Path, Kind string
	IsImage          bool
}

type recordData struct {
	Title       string
	ID          string
	Date        string
	Kind        string
	Fields      []kv
	Products    []productData
	PayloadJSON string
}

var indexTmpl = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html><head><title>{{.Title}}</title>
<style>body{font-family:sans-serif;margin:2em}table{border-collapse:collapse}
td,th{border:1px solid #ccc;padding:4px 8px}.facet{color:#555}</style></head>
<body>
<h1>{{.Title}}</h1>
<form method="GET" action="/">
  <input type="text" name="q" value="{{.Query}}" placeholder="search experiments" size="40">
  <select name="kind">
    <option value="">all kinds</option>
    <option value="hyperspectral" {{if eq .Kind "hyperspectral"}}selected{{end}}>hyperspectral</option>
    <option value="spatiotemporal" {{if eq .Kind "spatiotemporal"}}selected{{end}}>spatiotemporal</option>
  </select>
  <input type="submit" value="Search">
</form>
<p class="facet">{{range $k, $v := .Facets}}{{$k}}: {{$v}} &nbsp; {{end}}</p>
<p>{{.Total}} result(s)</p>
<table><tr><th>Record</th><th>Date</th><th>Kind</th><th>Title</th><th>Score</th></tr>
{{range .Hits}}<tr>
  <td><a href="/record/{{.ID}}">{{.ID}}</a></td>
  <td>{{.Date}}</td><td>{{.Kind}}</td><td>{{.Title}}</td><td>{{.Score}}</td>
</tr>{{end}}
</table>
</body></html>`))

var recordTmpl = template.Must(template.New("record").Parse(`<!DOCTYPE html>
<html><head><title>{{.ID}} — {{.Title}}</title>
<style>body{font-family:sans-serif;margin:2em}table{border-collapse:collapse}
td,th{border:1px solid #ccc;padding:4px 8px}img{max-width:640px;display:block;margin:1em 0}
pre{background:#f6f6f6;padding:1em;overflow-x:auto}</style></head>
<body>
<p><a href="/">&larr; back to search</a></p>
<h1>{{.ID}}</h1>
<p>{{.Kind}} experiment collected {{.Date}}</p>
<h2>Metadata</h2>
<table>{{range .Fields}}<tr><th>{{.K}}</th><td>{{.V}}</td></tr>{{end}}</table>
<h2>Data products</h2>
{{range .Products}}
  <h3>{{.Name}} ({{.Kind}})</h3>
  {{if .IsImage}}<img src="{{.Path}}" alt="{{.Name}}">{{else}}<p><a href="{{.Path}}">{{.Path}}</a></p>{{end}}
{{end}}
<h2>Full record</h2>
<pre>{{.PayloadJSON}}</pre>
</body></html>`))
