package core

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"picoprobe/internal/auth"
	"picoprobe/internal/compute"
	"picoprobe/internal/flows"
	"picoprobe/internal/search"
	"picoprobe/internal/sim"
	"picoprobe/internal/transfer"
)

// The action providers adapt the substrate services to the flows engine
// through flows.TypedProvider: each service declares its param and result
// structs once (json tags name the wire keys) and the flows codec handles
// the map encoding and weak numeric coercion that v1 hand-rolled per
// provider.

// TransferParams are the typed parameters of the "transfer" action.
type TransferParams struct {
	// Src/Dst are registered endpoint IDs.
	Src string `json:"src"`
	Dst string `json:"dst"`
	// RelPath is the file to move, relative to the endpoint roots.
	RelPath string `json:"rel_path,omitempty"`
	// RelPaths moves several files as one task (the multi-file batches
	// the watcher's batcher coalesces); it supersedes RelPath when set.
	RelPaths []string `json:"rel_paths,omitempty"`
	// Bytes sizes the file for the simulated mover (live transfers stat
	// the real file instead).
	Bytes int64 `json:"bytes,omitempty"`
	// FileBytes sizes RelPaths entries (parallel slice) for the simulated
	// mover; without it a sim-backed batch would move zero-byte files.
	FileBytes []int64 `json:"file_bytes,omitempty"`
}

// TransferResult is the "transfer" action's result.
type TransferResult struct {
	TaskID     string `json:"task_id"`
	BytesMoved int64  `json:"bytes_moved"`
}

// NewTransferProvider adapts the transfer service to the flows engine; a
// task signals its final outcome (transfer.Service.Watch).
func NewTransferProvider(svc *transfer.Service) flows.ActionProvider {
	return flows.NewTypedProvider("transfer",
		func(token string, p TransferParams) (string, error) {
			if p.Src == "" || p.Dst == "" || (p.RelPath == "" && len(p.RelPaths) == 0) {
				return "", fmt.Errorf("core: transfer params need src, dst and rel_path(s)")
			}
			var files []transfer.FileSpec
			if len(p.RelPaths) > 0 {
				for i, rel := range p.RelPaths {
					spec := transfer.FileSpec{RelPath: rel}
					if i < len(p.FileBytes) {
						spec.Bytes = p.FileBytes[i]
					}
					files = append(files, spec)
				}
			} else {
				files = []transfer.FileSpec{{RelPath: p.RelPath, Bytes: p.Bytes}}
			}
			return svc.Submit(token, p.Src, p.Dst, files)
		},
		func(token, actionID string) (flows.TypedStatus[TransferResult], error) {
			view, err := svc.Status(token, actionID)
			if err != nil {
				return flows.TypedStatus[TransferResult]{}, err
			}
			st := flows.TypedStatus[TransferResult]{
				Started:   view.Started,
				Completed: view.Completed,
				Error:     view.Error,
				Result:    TransferResult{TaskID: view.ID, BytesMoved: view.BytesMoved},
			}
			switch view.Status {
			case transfer.StatusSucceeded:
				st.State = flows.StateSucceeded
			case transfer.StatusFailed:
				st.State = flows.StateFailed
			default:
				st.State = flows.StateActive
			}
			return st, nil
		}).WithWatch(svc.Watch)
}

// ComputeParams are the typed parameters of the "compute" action.
type ComputeParams struct {
	// Function names the registered function to run.
	Function string `json:"function"`
	// Args is the function's argument map.
	Args compute.Args `json:"args,omitempty"`
}

// ComputeResult is the "compute" action's result: the function's own
// output map plus the endpoint's node accounting (first-flow penalties).
type ComputeResult struct {
	NodeID      int  `json:"node_id"`
	Provisioned bool `json:"provisioned"`
	Warmed      bool `json:"warmed"`
	// Output carries the function's result entries at the top level of
	// the wire map, as v1 merged them.
	Output map[string]any `json:",inline"`
}

// ComputeBackend is the dispatch surface the compute provider drives:
// the in-process *compute.Service, or a wire-backed proxy submitting to
// a remote facility daemon. Both present the same token-gated
// submit/poll contract, which is why the flows above them cannot tell
// an address space from a socket.
type ComputeBackend interface {
	Submit(token, fnName string, args compute.Args) (string, error)
	Status(token, taskID string) (compute.TaskView, error)
}

// NewComputeProvider adapts a compute backend to the flows engine. A
// backend that can signal completion (the in-process *compute.Service,
// the wire proxy's held Jobs) is watched; one that cannot is polled.
func NewComputeProvider(svc ComputeBackend) flows.ActionProvider {
	p := flows.NewTypedProvider("compute",
		func(token string, p ComputeParams) (string, error) {
			if p.Function == "" {
				return "", fmt.Errorf("core: compute params need a function name")
			}
			return svc.Submit(token, p.Function, p.Args)
		},
		func(token, actionID string) (flows.TypedStatus[ComputeResult], error) {
			view, err := svc.Status(token, actionID)
			if err != nil {
				return flows.TypedStatus[ComputeResult]{}, err
			}
			st := flows.TypedStatus[ComputeResult]{
				Started:   view.Started,
				Completed: view.Completed,
				Error:     view.Error,
				Result: ComputeResult{
					NodeID:      view.NodeID,
					Provisioned: view.Provisioned,
					Warmed:      view.Warmed,
					Output:      view.Result,
				},
			}
			switch view.Status {
			case compute.StatusSucceeded:
				st.State = flows.StateSucceeded
			case compute.StatusFailed:
				st.State = flows.StateFailed
			default:
				st.State = flows.StateActive
			}
			return st, nil
		})
	if w, ok := svc.(interface{ Watch(string, func()) }); ok {
		p.WithWatch(w.Watch)
	}
	return p
}

// Catalog is the ingest surface the publication provider writes through:
// the in-memory *search.Index, or *search.DurableIndex when the
// deployment journals catalog mutations (LiveOptions.DurableDir).
type Catalog interface {
	IngestBatch(entries []search.Entry) error
}

// SearchParams are the typed parameters of the "search" publication
// action.
type SearchParams struct {
	// EntryJSON is one serialized search.Entry to ingest.
	EntryJSON string `json:"entry_json,omitempty"`
	// EntriesJSON carries several serialized entries — the batched
	// publication a multi-file flow produces; all of them land in the
	// index through a single IngestBatch publish.
	EntriesJSON []string `json:"entries_json,omitempty"`
}

// SearchResult is the "search" action's result.
type SearchResult struct {
	// RecordID is the (first) ingested record; RecordIDs lists all of
	// them when the action published a batch.
	RecordID  string   `json:"record_id"`
	RecordIDs []string `json:"record_ids,omitempty"`
	// Ingested counts the records this action put into the index.
	Ingested int `json:"ingested"`
}

// PublishStats counts the publication provider's batching activity:
// IngestBatch publishes versus records ingested. BatchedEntries >
// Batches exactly when concurrent publications coalesced.
type PublishStats struct {
	// Actions is how many publication actions were invoked.
	Actions int
	// Batches is how many IngestBatch calls reached the index; Entries is
	// the record total across them; MaxBatch is the largest single batch.
	Batches, Entries, MaxBatch int
}

// pendingPub is one publication action waiting for its service-side cost
// to elapse.
type pendingPub struct {
	id      string
	act     *flows.TypedStatus[SearchResult]
	entries []search.Entry
	ids     []string
	due     time.Time
}

// searchService is the publication action body: it ingests experiment
// entries into the search index after a modeled service-side cost (the
// paper runs this lightweight step on a Polaris login node). Completion
// timing is per-action — each action completes exactly cost after its
// invocation, so flow timings are unchanged from the one-Ingest-per-call
// implementation — but the physical index writes are batched: every
// flush drains all due actions' entries through one IngestBatch, so a
// burst of simultaneous publications pays one copy-on-write publish per
// shard instead of one per record.
type searchService struct {
	mu      sync.Mutex
	rt      sim.Runtime
	issuer  *auth.Issuer
	index   Catalog
	cost    time.Duration
	actions map[string]*flows.TypedStatus[SearchResult]
	// watchers holds Watch callbacks until their action's flush.
	watchers map[string][]func()
	queue    []*pendingPub
	nextID   int
	stats    PublishStats
}

// NewSearchProvider returns a publication provider writing into index
// with the given service-side ingest cost.
func NewSearchProvider(rt sim.Runtime, issuer *auth.Issuer, index Catalog, cost time.Duration) flows.ActionProvider {
	p, _ := NewSearchProviderWithStats(rt, issuer, index, cost)
	return p
}

// NewSearchProviderWithStats additionally exposes the provider's batching
// counters (used by tests and the ingest benchmark).
func NewSearchProviderWithStats(rt sim.Runtime, issuer *auth.Issuer, index Catalog, cost time.Duration) (flows.ActionProvider, func() PublishStats) {
	s := &searchService{rt: rt, issuer: issuer, index: index, cost: cost,
		actions: map[string]*flows.TypedStatus[SearchResult]{}, watchers: map[string][]func(){}}
	return flows.NewTypedProvider("search", s.invoke, s.status).WithWatch(s.watch), s.Stats
}

// Stats snapshots the provider's batching counters.
func (s *searchService) Stats() PublishStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *searchService) invoke(token string, p SearchParams) (string, error) {
	if _, err := s.issuer.Verify(token, auth.ScopeSearchIngest); err != nil {
		return "", err
	}
	raws := p.EntriesJSON
	if p.EntryJSON != "" {
		raws = append([]string{p.EntryJSON}, raws...)
	}
	var entries []search.Entry
	var ids []string
	for _, raw := range raws {
		var entry search.Entry
		if err := json.Unmarshal([]byte(raw), &entry); err != nil {
			return "", fmt.Errorf("core: bad entry json: %w", err)
		}
		// Entries without an ID are silently skipped, as the
		// one-at-a-time implementation did.
		if entry.ID != "" {
			entries = append(entries, entry)
			ids = append(ids, entry.ID)
		}
	}
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("ingest-%06d", s.nextID)
	act := &flows.TypedStatus[SearchResult]{State: flows.StateActive, Started: s.rt.Now()}
	s.actions[id] = act
	s.stats.Actions++
	s.queue = append(s.queue, &pendingPub{
		id: id, act: act, entries: entries, ids: ids, due: s.rt.Now().Add(s.cost),
	})
	s.mu.Unlock()

	s.rt.AfterFunc(s.cost, s.flush)
	return id, nil
}

// flush completes every queued publication whose cost has elapsed,
// writing all their entries through one IngestBatch. Each action fires
// its own flush at exactly its due instant, so batching never delays a
// completion; it only merges index writes that fall due together.
func (s *searchService) flush() {
	now := s.rt.Now()
	s.mu.Lock()
	var due []*pendingPub
	for len(s.queue) > 0 && !s.queue[0].due.After(now) {
		due = append(due, s.queue[0])
		s.queue = s.queue[1:]
	}
	s.mu.Unlock()
	if len(due) == 0 {
		return
	}
	var batch []search.Entry
	for _, p := range due {
		batch = append(batch, p.entries...)
	}
	// Ingest outside the provider lock: the index serializes its own
	// writers, and holding s.mu across the copy-on-write publish would
	// stall concurrent Status polls of unrelated actions.
	var ingestErr error
	if len(batch) > 0 {
		ingestErr = s.index.IngestBatch(batch)
	}
	// Stamp after the ingest so a durable catalog's fsync falls inside the
	// Publication state's active window. The sim kernel's clock cannot
	// advance inside a callback, so simulated timelines are unchanged.
	done := s.rt.Now()
	var watchers []func()
	s.mu.Lock()
	if len(batch) > 0 {
		s.stats.Batches++
		s.stats.Entries += len(batch)
		if len(batch) > s.stats.MaxBatch {
			s.stats.MaxBatch = len(batch)
		}
	}
	for _, p := range due {
		watchers = append(watchers, s.watchers[p.id]...)
		delete(s.watchers, p.id)
		p.act.Completed = done
		if ingestErr != nil {
			p.act.State = flows.StateFailed
			p.act.Error = ingestErr.Error()
			continue
		}
		p.act.State = flows.StateSucceeded
		res := SearchResult{Ingested: len(p.ids)}
		if len(p.ids) > 0 {
			res.RecordID = p.ids[0]
		}
		if len(p.ids) > 1 {
			res.RecordIDs = p.ids
		}
		p.act.Result = res
	}
	s.mu.Unlock()
	for _, w := range watchers {
		w() // after the unlock: the engine's status call reads the result
	}
}

// watch calls done at the flush that completes the action, and at once
// when it is already complete or unknown.
func (s *searchService) watch(actionID string, done func()) {
	s.mu.Lock()
	if act, ok := s.actions[actionID]; ok && act.State == flows.StateActive {
		s.watchers[actionID] = append(s.watchers[actionID], done)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	done()
}

func (s *searchService) status(token, actionID string) (flows.TypedStatus[SearchResult], error) {
	if _, err := s.issuer.Verify(token, auth.ScopeSearchIngest); err != nil {
		return flows.TypedStatus[SearchResult]{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	act, ok := s.actions[actionID]
	if !ok {
		return flows.TypedStatus[SearchResult]{}, fmt.Errorf("core: unknown ingest action %q", actionID)
	}
	return *act, nil
}
