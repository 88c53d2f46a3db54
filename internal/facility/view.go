package facility

import (
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"strconv"
	"time"

	"picoprobe/internal/stats"
)

// View is the registry's own rendering of its state, for a portal to
// mount: /facilities is a load table (pool occupancy, queue depth, live
// queue-wait estimate, placements and failovers), /api/facilities the
// JSON twin. Unlike flow-run views these carry no run inputs or
// per-record data, only aggregate facility load, so a portal serves them
// to anonymous requests too. title is the host portal's heading.
func (r *Registry) View(title string) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/facilities", func(w http.ResponseWriter, _ *http.Request) { r.servePage(w, title) })
	mux.HandleFunc("/api/facilities", func(w http.ResponseWriter, _ *http.Request) { r.serveJSON(w) })
	return mux
}

func (r *Registry) servePage(w http.ResponseWriter, title string) {
	snap := r.Snapshot()
	data := facilitiesData{Title: title, Total: len(snap)}
	for _, f := range snap {
		row := facilityRowData{
			ID:      f.ID,
			Name:    f.Name,
			Up:      f.Up,
			Nodes:   f.Nodes,
			Busy:    f.Busy,
			Idle:    f.Idle,
			Queued:  f.Queued,
			EstWait: formatSeconds(f.EstWaitS),
			Jobs:    f.JobsRun,
			WaitP50: formatSeconds(f.Waits.P50S),
			WaitP95: formatSeconds(f.Waits.P95S),
			Placed:  f.Placed,
			Failed:  f.Failed,
			Stream:  stats.FormatRate(f.Stream),
		}
		// Quality is nil when no prober is attached (or the path is not
		// yet measured): the link columns then render as dashes.
		if q := f.Quality; q != nil {
			row.Score = fmt.Sprintf("%.1f", q.Score)
			row.Degraded = q.Degraded
			row.LinkRTT = fmt.Sprintf("%.1f ms", q.RTTMs)
			row.LinkLoss = fmt.Sprintf("%.2f%%", q.Loss*100)
			row.Goodput = stats.FormatRate(q.GoodputBps)
		}
		// Health is nil when no heartbeat monitor is attached; the column
		// then renders as a dash.
		if h := f.Health; h != nil {
			row.Health = h.State
			row.HealthDown = h.State != "up"
			row.HealthDetail = fmt.Sprintf("%d/%d checks failed", h.Fails, h.Checks)
		}
		data.Facilities = append(data.Facilities, row)
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := facilitiesTmpl.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (r *Registry) serveJSON(w http.ResponseWriter) {
	snap := r.Snapshot()
	if snap == nil {
		snap = []Status{} // clients get "facilities": [], never null
	}
	body, err := json.Marshal(struct {
		Total      int      `json:"total"`
		Facilities []Status `json:"facilities"`
	}{len(snap), snap})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

func formatSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Millisecond).String()
}

type facilityRowData struct {
	ID, Name         string
	Up               bool
	Nodes            int
	Busy, Idle       int
	Queued           int
	EstWait          string
	Jobs             int
	WaitP50, WaitP95 string
	Placed, Failed   int
	Stream           string
	// Link-quality columns; empty strings mean unmeasured (no prober).
	Score    string
	Degraded bool
	LinkRTT  string
	LinkLoss string
	Goodput  string
	// Heartbeat health column; empty string means unmonitored.
	Health       string
	HealthDown   bool
	HealthDetail string
}

type facilitiesData struct {
	Title      string
	Total      int
	Facilities []facilityRowData
}

var facilitiesTmpl = template.Must(template.New("facilities").Parse(`<!DOCTYPE html>
<html><head><title>Facilities — {{.Title}}</title>
<style>body{font-family:sans-serif;margin:2em}table{border-collapse:collapse}
td,th{border:1px solid #ccc;padding:4px 8px}.down{color:#b00}</style></head>
<body>
<p><a href="/">&larr; back to search</a></p>
<h1>Facilities</h1>
<p>{{.Total}} facilit(ies) in the federation</p>
<table><tr><th>Facility</th><th>Status</th><th>Nodes (busy/idle)</th>
<th>Queue depth</th><th>Est. wait</th><th>Jobs run</th>
<th>Wait p50</th><th>Wait p95</th><th>Runs placed</th>
<th>Failovers from</th><th>Stream cap</th>
<th>Link score</th><th>Link RTT</th><th>Loss</th><th>Goodput</th>
<th>Health</th></tr>
{{range .Facilities}}<tr{{if not .Up}} class="down"{{end}}>
  <td>{{.Name}} ({{.ID}})</td>
  <td>{{if .Up}}up{{else}}DOWN{{end}}</td>
  <td>{{.Nodes}} ({{.Busy}}/{{.Idle}})</td>
  <td>{{.Queued}}</td><td>{{.EstWait}}</td><td>{{.Jobs}}</td>
  <td>{{.WaitP50}}</td><td>{{.WaitP95}}</td>
  <td>{{.Placed}}</td><td>{{.Failed}}</td><td>{{.Stream}}</td>
  <td>{{if .Score}}{{.Score}}{{if .Degraded}} <span class="down">degraded</span>{{end}}{{else}}&mdash;{{end}}</td>
  <td>{{if .LinkRTT}}{{.LinkRTT}}{{else}}&mdash;{{end}}</td>
  <td>{{if .LinkLoss}}{{.LinkLoss}}{{else}}&mdash;{{end}}</td>
  <td>{{if .Goodput}}{{.Goodput}}{{else}}&mdash;{{end}}</td>
  <td>{{if .Health}}{{if .HealthDown}}<span class="down">{{.Health}}</span>{{else}}{{.Health}}{{end}} <small>{{.HealthDetail}}</small>{{else}}&mdash;{{end}}</td>
</tr>{{end}}
</table>
</body></html>`))
