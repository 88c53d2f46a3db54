package portal

import (
	"encoding/json"
	"html/template"
	"net/http"
	"strings"
	"time"

	"picoprobe/internal/flows"
)

// The flow-monitoring views expose the engine's run records the way the
// Globus web app shows flow runs: a run list with status and the paper's
// active-versus-overhead decomposition, and a per-run page rendering the
// executed DAG — every state with its dependencies, action ID, poll
// count and timing window. JSON twins live under /api/flows for
// programmatic clients.
//
// Run records carry inputs, action IDs and errors, and have no per-run
// ACLs, so on an authenticated portal (Config.Issuer set) they are
// operator-facing: requests must present a valid portal-scoped token.
// Anonymous portals (no issuer) expose them freely, like everything
// else.

// flowsAuthorized enforces the operator gate above; it writes the error
// response itself when access is denied.
func (s *Server) flowsAuthorized(w http.ResponseWriter, r *http.Request) bool {
	if s.cfg.Issuer == nil || s.principal(r) != "" {
		return true
	}
	http.Error(w, "flow runs require an authenticated principal", http.StatusForbidden)
	return false
}

func (s *Server) handleFlows(w http.ResponseWriter, r *http.Request) {
	if !s.flowsAuthorized(w, r) {
		return
	}
	runs := s.cfg.Flows.Runs()
	data := flowsData{Title: Title, Total: len(runs)}
	// Newest first: researchers care about the run they just started.
	for i := len(runs) - 1; i >= 0; i-- {
		data.Runs = append(data.Runs, runSummary(runs[i]))
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := flowsTmpl.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleFlowRun(w http.ResponseWriter, r *http.Request) {
	if !s.flowsAuthorized(w, r) {
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/flows/run/")
	rec, ok := s.cfg.Flows.Record(id)
	if !ok {
		http.NotFound(w, r)
		return
	}
	data := flowRunData{Title: Title, Run: runSummary(rec)}
	for _, st := range rec.States {
		data.States = append(data.States, stateRowData{
			Name:     st.Name,
			Provider: st.Provider,
			ActionID: st.ActionID,
			After:    strings.Join(st.After, ", "),
			Entered:  st.EnteredAt.Format("15:04:05.000"),
			Invoked:  st.InvokedAt.Format("15:04:05.000"),
			Started:  st.Started.Format("15:04:05.000"),
			Detected: st.DetectedAt.Format("15:04:05.000"),
			Active:   st.Active().Round(time.Millisecond).String(),
			Overhead: st.Overhead().Round(time.Millisecond).String(),
			Polls:    st.Polls,
			Attempts: st.Attempts,
			Error:    st.Error,
		})
	}
	if raw, err := json.MarshalIndent(rec.Input, "", "  "); err == nil {
		data.InputJSON = string(raw)
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := flowRunTmpl.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleAPIFlows(w http.ResponseWriter, r *http.Request) {
	if !s.flowsAuthorized(w, r) {
		return
	}
	runs := s.cfg.Flows.Runs()
	type apiRun struct {
		RunID     string    `json:"run_id"`
		Flow      string    `json:"flow"`
		Status    string    `json:"status"`
		StartedAt time.Time `json:"started_at"`
		RuntimeS  float64   `json:"runtime_s"`
		OverheadS float64   `json:"overhead_s"`
		States    int       `json:"states"`
		Error     string    `json:"error,omitempty"`
	}
	resp := struct {
		Total int      `json:"total"`
		Runs  []apiRun `json:"runs"`
	}{Total: len(runs), Runs: make([]apiRun, 0, len(runs))}
	for _, rec := range runs {
		resp.Runs = append(resp.Runs, apiRun{
			RunID:     rec.RunID,
			Flow:      rec.Flow,
			Status:    string(rec.Status),
			StartedAt: rec.StartedAt,
			RuntimeS:  rec.Runtime().Seconds(),
			OverheadS: rec.TotalOverhead().Seconds(),
			States:    len(rec.States),
			Error:     rec.Error,
		})
	}
	writeJSON(w, resp)
}

func (s *Server) handleAPIFlowRun(w http.ResponseWriter, r *http.Request) {
	if !s.flowsAuthorized(w, r) {
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/api/flows/run/")
	rec, ok := s.cfg.Flows.Record(id)
	if !ok {
		http.Error(w, `{"error":"not found"}`, http.StatusNotFound)
		return
	}
	writeJSON(w, flowRunJSON(rec))
}

// flowRunJSON shapes one run record for the API: the DAG is explicit
// (every state carries its dependencies) and the timings are the raw
// Fig 4 decomposition inputs.
func flowRunJSON(rec flows.RunRecord) any {
	type apiState struct {
		Name       string    `json:"name"`
		Provider   string    `json:"provider"`
		ActionID   string    `json:"action_id"`
		After      []string  `json:"after,omitempty"`
		EnteredAt  time.Time `json:"entered_at"`
		InvokedAt  time.Time `json:"invoked_at"`
		Started    time.Time `json:"started"`
		Completed  time.Time `json:"completed"`
		DetectedAt time.Time `json:"detected_at"`
		ActiveS    float64   `json:"active_s"`
		OverheadS  float64   `json:"overhead_s"`
		Polls      int       `json:"polls"`
		Attempts   int       `json:"attempts"`
		Error      string    `json:"error,omitempty"`
	}
	out := struct {
		RunID     string         `json:"run_id"`
		Flow      string         `json:"flow"`
		Status    string         `json:"status"`
		Input     map[string]any `json:"input,omitempty"`
		StartedAt time.Time      `json:"started_at"`
		EndedAt   time.Time      `json:"ended_at"`
		RuntimeS  float64        `json:"runtime_s"`
		States    []apiState     `json:"states"`
		Error     string         `json:"error,omitempty"`
	}{
		RunID:     rec.RunID,
		Flow:      rec.Flow,
		Status:    string(rec.Status),
		Input:     rec.Input,
		StartedAt: rec.StartedAt,
		EndedAt:   rec.EndedAt,
		RuntimeS:  rec.Runtime().Seconds(),
		States:    make([]apiState, 0, len(rec.States)),
		Error:     rec.Error,
	}
	for _, st := range rec.States {
		out.States = append(out.States, apiState{
			Name:       st.Name,
			Provider:   st.Provider,
			ActionID:   st.ActionID,
			After:      st.After,
			EnteredAt:  st.EnteredAt,
			InvokedAt:  st.InvokedAt,
			Started:    st.Started,
			Completed:  st.Completed,
			DetectedAt: st.DetectedAt,
			ActiveS:    st.Active().Seconds(),
			OverheadS:  st.Overhead().Seconds(),
			Polls:      st.Polls,
			Attempts:   st.Attempts,
			Error:      st.Error,
		})
	}
	return out
}

type runRowData struct {
	RunID    string
	Flow     string
	Status   string
	Started  string
	Runtime  string
	Active   string
	Overhead string
	States   int
	Failed   bool
}

func runSummary(rec flows.RunRecord) runRowData {
	return runRowData{
		RunID:    rec.RunID,
		Flow:     rec.Flow,
		Status:   string(rec.Status),
		Started:  rec.StartedAt.Format("2006-01-02 15:04:05"),
		Runtime:  rec.Runtime().Round(time.Millisecond).String(),
		Active:   rec.TotalActive().Round(time.Millisecond).String(),
		Overhead: rec.TotalOverhead().Round(time.Millisecond).String(),
		States:   len(rec.States),
		Failed:   rec.Status == flows.StateFailed,
	}
}

type flowsData struct {
	Title string
	Total int
	Runs  []runRowData
}

type stateRowData struct {
	Name, Provider, ActionID, After     string
	Entered, Invoked, Started, Detected string
	Active, Overhead                    string
	Polls, Attempts                     int
	Error                               string
}

type flowRunData struct {
	Title     string
	Run       runRowData
	States    []stateRowData
	InputJSON string
}

var flowsTmpl = template.Must(template.New("flows").Parse(`<!DOCTYPE html>
<html><head><title>Flow runs — {{.Title}}</title>
<style>body{font-family:sans-serif;margin:2em}table{border-collapse:collapse}
td,th{border:1px solid #ccc;padding:4px 8px}.failed{color:#b00}</style></head>
<body>
<p><a href="/">&larr; back to search</a></p>
<h1>Flow runs</h1>
<p>{{.Total}} run(s)</p>
<table><tr><th>Run</th><th>Flow</th><th>Status</th><th>Started</th>
<th>Runtime</th><th>Active</th><th>Overhead</th><th>States</th></tr>
{{range .Runs}}<tr{{if .Failed}} class="failed"{{end}}>
  <td><a href="/flows/run/{{.RunID}}">{{.RunID}}</a></td>
  <td>{{.Flow}}</td><td>{{.Status}}</td><td>{{.Started}}</td>
  <td>{{.Runtime}}</td><td>{{.Active}}</td><td>{{.Overhead}}</td><td>{{.States}}</td>
</tr>{{end}}
</table>
</body></html>`))

var flowRunTmpl = template.Must(template.New("flowrun").Parse(`<!DOCTYPE html>
<html><head><title>{{.Run.RunID}} — {{.Title}}</title>
<style>body{font-family:sans-serif;margin:2em}table{border-collapse:collapse}
td,th{border:1px solid #ccc;padding:4px 8px}.failed{color:#b00}
pre{background:#f6f6f6;padding:1em;overflow-x:auto}</style></head>
<body>
<p><a href="/flows">&larr; all runs</a></p>
<h1>{{.Run.RunID}}</h1>
<p>{{.Run.Flow}} — <span{{if .Run.Failed}} class="failed"{{end}}>{{.Run.Status}}</span>,
started {{.Run.Started}}, runtime {{.Run.Runtime}}
(active {{.Run.Active}}, overhead {{.Run.Overhead}})</p>
<h2>States (executed DAG)</h2>
<table><tr><th>State</th><th>After</th><th>Provider</th><th>Action</th>
<th>Entered</th><th>Invoked</th><th>Started</th><th>Detected</th>
<th>Active</th><th>Overhead</th><th>Polls</th><th>Attempts</th></tr>
{{range .States}}<tr{{if .Error}} class="failed"{{end}}>
  <td>{{.Name}}</td><td>{{.After}}</td><td>{{.Provider}}</td><td>{{.ActionID}}</td>
  <td>{{.Entered}}</td><td>{{.Invoked}}</td><td>{{.Started}}</td><td>{{.Detected}}</td>
  <td>{{.Active}}</td><td>{{.Overhead}}</td><td>{{.Polls}}</td><td>{{.Attempts}}</td>
</tr>{{end}}
</table>
{{if .InputJSON}}<h2>Input</h2><pre>{{.InputJSON}}</pre>{{end}}
</body></html>`))
