// Package transfer is the managed file-transfer service standing in for
// Globus Transfer: clients submit transfer tasks between registered
// endpoints and poll task status, exactly the interaction pattern the
// paper's flows use for their Data Transfer stage. The byte movement is a
// pipelined chunk engine: a task's files are split into fixed-size
// chunks, moved by a bounded worker pool over N concurrent streams, and
// recorded in a per-task chunk manifest so an interrupted or failed
// transfer resumes from the last verified chunk instead of restarting
// (retry cost is O(remaining chunks)). There is one real mover,
// ChunkMover (the engine is engine.go), and its one deployment choice is
// where chunks land: as parallel ranged writes into a directory on this
// machine, or — given a WireLanding — shipped to a facility daemon over
// TCP, either way with per-chunk SHA-256 and a verified merge — there is
// no unverified transfer, and the daemon refuses a chunk or a merge plan
// that declares no digest (DESIGN.md §11). A simulated mover
// (internal/lab's SimMover, planning with PlanFile) drives the same
// framing over the netsim fluid-flow network so 1-hour facility
// experiments run in milliseconds of virtual time.
// Failed moves are retried with bounded attempts, spaced as the mover
// declares (a wire landing backs off for a daemon that may be restarting,
// a local landing and the simulated mover are retried at once),
// mirroring the service-managed fault tolerance the paper delegates to
// Globus; with chunk framing disabled and a single stream, every mover
// degenerates exactly to the original whole-file, single-stream behavior
// the Table 1 reproductions pin.
package transfer

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"picoprobe/internal/auth"
	"picoprobe/internal/wire"
)

// TaskStatus is the lifecycle state of a transfer task.
type TaskStatus string

// Task lifecycle states (a submitted task is immediately ACTIVE).
const (
	StatusActive    TaskStatus = "ACTIVE"
	StatusSucceeded TaskStatus = "SUCCEEDED"
	StatusFailed    TaskStatus = "FAILED"
)

// Endpoint is a registered data endpoint. Root is the endpoint's filesystem
// root in live mode; simulated endpoints may leave it empty.
type Endpoint struct {
	ID   string
	Name string
	Root string
}

// FileSpec names one file of a task, relative to the endpoint roots. Bytes
// drives the simulated mover; the chunk mover stats the real file.
type FileSpec struct {
	RelPath string
	Bytes   int64
}

// Task is the service-side record of a transfer.
type Task struct {
	ID         string
	Src, Dst   string // endpoint IDs
	Files      []FileSpec
	Status     TaskStatus
	Error      string
	BytesMoved int64
	Attempts   int
	Submitted  time.Time
	Started    time.Time // when byte movement began (service-side)
	Completed  time.Time // when the task reached a terminal state
	Checksums  map[string]string

	// Chunk accounting, cumulative across attempts: how many chunks the
	// task comprises, how many were actually copied, how many were skipped
	// because a resumed attempt found them already verified, and the wire
	// bytes actually copied (BytesCopied < BytesMoved exactly when resume
	// saved work).
	ChunksTotal   int
	ChunksMoved   int
	ChunksSkipped int
	BytesCopied   int64
}

// TaskView is the read-only copy returned to clients.
type TaskView struct {
	ID         string
	Status     TaskStatus
	Error      string
	BytesMoved int64
	Attempts   int
	Submitted  time.Time
	Started    time.Time
	Completed  time.Time

	// Chunk accounting, cumulative across attempts (see Task).
	ChunksTotal   int
	ChunksMoved   int
	ChunksSkipped int
	BytesCopied   int64

	// Checksums maps each file's RelPath to the whole-file digest the
	// mover's verified merge produced: nil until the task succeeds, one
	// entry per file after.
	Checksums map[string]string
}

// Report is a mover's account of one move attempt. On failure the partial
// counts still describe what landed before the error, so the service's
// task record accumulates true progress across retries.
type Report struct {
	// BytesMoved is the task's total payload present at the destination
	// after a successful attempt (0 on failure).
	BytesMoved int64
	// BytesCopied is the wire volume this attempt actually copied — the
	// retry-cost metric resume minimizes.
	BytesCopied int64
	// Checksums maps each file's RelPath to its whole-file digest, one
	// entry per file of a successful attempt.
	Checksums map[string]string
	// ChunksTotal/ChunksMoved/ChunksSkipped count the task's chunk plan,
	// the chunks this attempt copied, and the chunks it skipped because
	// the manifest already recorded them as verified.
	ChunksTotal   int
	ChunksMoved   int
	ChunksSkipped int
}

// Mover moves a task's bytes asynchronously and reports the attempt's
// outcome exactly once via done.
type Mover interface {
	Move(task *Task, src, dst *Endpoint, done func(rep Report, err error))
}

// taskForgetter is an optional Mover extension: the service calls it
// when a task fails permanently (retries exhausted), so movers that keep
// per-task-ID resume state can drop it. The chunk mover does not need it
// — its manifests are keyed by task fingerprint so a resubmitted task
// still resumes.
type taskForgetter interface {
	ForgetTask(taskID string)
}

// retrySpacer is an optional Mover extension: how long the service waits
// before retry attempt (0-based) of a failed move. Spacing is a property
// of what the mover talks to — a ChunkMover landing on a daemon, which may
// be restarting, declares it; a mover without the method, or answering 0,
// is retried at once, which is what the sim timelines (Table 1) rest on.
type retrySpacer interface {
	RetryDelay(attempt int) time.Duration
}

// Options configures the service.
type Options struct {
	// MaxAttempts bounds move retries per task (default 3).
	MaxAttempts int
}

// Service manages endpoints and transfer tasks.
type Service struct {
	mu        sync.Mutex
	issuer    *auth.Issuer
	mover     Mover
	now       func() time.Time
	endpoints map[string]*Endpoint
	tasks     map[string]*Task
	watchers  map[string][]func() // task ID -> Watch callbacks until terminal
	nextID    int
	maxTries  int
}

// NewService returns a transfer service. The issuer validates bearer
// tokens; now supplies timestamps (kernel clock in simulation, scaled real
// time live).
func NewService(issuer *auth.Issuer, mover Mover, now func() time.Time, opts Options) *Service {
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 3
	}
	return &Service{
		issuer:    issuer,
		mover:     mover,
		now:       now,
		endpoints: map[string]*Endpoint{},
		tasks:     map[string]*Task{},
		watchers:  map[string][]func(){},
		maxTries:  opts.MaxAttempts,
	}
}

// RegisterEndpoint adds an endpoint to the service.
func (s *Service) RegisterEndpoint(ep Endpoint) error {
	if ep.ID == "" {
		return fmt.Errorf("transfer: endpoint missing ID")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.endpoints[ep.ID]; dup {
		return fmt.Errorf("transfer: endpoint %q already registered", ep.ID)
	}
	cp := ep
	s.endpoints[ep.ID] = &cp
	return nil
}

// Submit creates a transfer task and starts moving bytes. It returns the
// task ID immediately; poll Status for completion.
func (s *Service) Submit(token, srcID, dstID string, files []FileSpec) (string, error) {
	if _, err := s.issuer.Verify(token, auth.ScopeTransfer); err != nil {
		return "", err
	}
	if len(files) == 0 {
		return "", fmt.Errorf("transfer: task has no files")
	}
	// A RelPath is joined under both endpoint roots; one that is empty,
	// absolute or climbs out ("../x") would read and land outside them.
	for _, f := range files {
		if !filepath.IsLocal(f.RelPath) {
			return "", fmt.Errorf("transfer: file path %q is not local to the endpoint roots", f.RelPath)
		}
	}
	s.mu.Lock()
	src, ok := s.endpoints[srcID]
	if !ok {
		s.mu.Unlock()
		return "", fmt.Errorf("transfer: unknown source endpoint %q", srcID)
	}
	dst, ok := s.endpoints[dstID]
	if !ok {
		s.mu.Unlock()
		return "", fmt.Errorf("transfer: unknown destination endpoint %q", dstID)
	}
	s.nextID++
	task := &Task{
		ID:        fmt.Sprintf("xfer-%06d", s.nextID),
		Src:       srcID,
		Dst:       dstID,
		Files:     append([]FileSpec(nil), files...),
		Status:    StatusActive,
		Submitted: s.now(),
		Started:   s.now(),
	}
	s.tasks[task.ID] = task
	s.mu.Unlock()

	s.startMove(task, src, dst)
	return task.ID, nil
}

func (s *Service) startMove(task *Task, src, dst *Endpoint) {
	s.mu.Lock()
	task.Attempts++
	s.mu.Unlock()
	s.mover.Move(task, src, dst, func(rep Report, err error) {
		s.mu.Lock()
		// Accumulate the attempt's chunk accounting whether it succeeded
		// or not: a failed attempt's landed chunks are real progress the
		// next attempt will skip.
		if rep.ChunksTotal > task.ChunksTotal {
			task.ChunksTotal = rep.ChunksTotal
		}
		task.ChunksMoved += rep.ChunksMoved
		task.ChunksSkipped += rep.ChunksSkipped
		task.BytesCopied += rep.BytesCopied
		if err != nil {
			// A permanent wire error (auth, bad request, not found) cannot
			// be fixed by retrying — burning the remaining attempts would
			// only repeat the same answer, so the task fails now.
			if task.Attempts < s.maxTries && !wire.Permanent(err) {
				attempt := task.Attempts
				s.mu.Unlock()
				if sp, ok := s.mover.(retrySpacer); ok {
					if d := sp.RetryDelay(attempt - 1); d > 0 {
						time.AfterFunc(d, func() { s.startMove(task, src, dst) })
						return
					}
				}
				s.startMove(task, src, dst) // retry resumes from the manifest
				return
			}
			task.Status = StatusFailed
			task.Error = err.Error()
			task.Completed = s.now()
			watchers := s.takeWatchersLocked(task.ID)
			s.mu.Unlock()
			if f, ok := s.mover.(taskForgetter); ok {
				f.ForgetTask(task.ID)
			}
			fire(watchers)
			return
		}
		task.Status = StatusSucceeded
		task.BytesMoved = rep.BytesMoved
		task.Checksums = rep.Checksums
		task.Completed = s.now()
		watchers := s.takeWatchersLocked(task.ID)
		s.mu.Unlock()
		fire(watchers)
	})
}

// Watch calls done once the task has reached its final status —
// succeeded, or failed with its attempts spent, never between attempts —
// and at once when the task is already terminal or unknown.
func (s *Service) Watch(taskID string, done func()) {
	s.mu.Lock()
	if t, ok := s.tasks[taskID]; ok && t.Status == StatusActive {
		s.watchers[taskID] = append(s.watchers[taskID], done)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	done()
}

// takeWatchersLocked removes and returns a task's Watch callbacks; s.mu
// must be held.
func (s *Service) takeWatchersLocked(taskID string) []func() {
	w := s.watchers[taskID]
	delete(s.watchers, taskID)
	return w
}

func fire(callbacks []func()) {
	for _, f := range callbacks {
		f()
	}
}

// viewLocked snapshots a task; s.mu must be held.
func (s *Service) viewLocked(t *Task) TaskView {
	var sums map[string]string
	if len(t.Checksums) > 0 {
		sums = make(map[string]string, len(t.Checksums))
		for k, v := range t.Checksums {
			sums[k] = v
		}
	}
	return TaskView{
		ID: t.ID, Status: t.Status, Error: t.Error, BytesMoved: t.BytesMoved,
		Attempts: t.Attempts, Submitted: t.Submitted, Started: t.Started, Completed: t.Completed,
		ChunksTotal: t.ChunksTotal, ChunksMoved: t.ChunksMoved,
		ChunksSkipped: t.ChunksSkipped, BytesCopied: t.BytesCopied,
		Checksums: sums,
	}
}

// Status returns the task's current state.
func (s *Service) Status(token, taskID string) (TaskView, error) {
	if _, err := s.issuer.Verify(token, auth.ScopeTransfer); err != nil {
		return TaskView{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tasks[taskID]
	if !ok {
		return TaskView{}, fmt.Errorf("transfer: unknown task %q", taskID)
	}
	return s.viewLocked(t), nil
}

// Tasks returns a snapshot of every task (for reporting).
func (s *Service) Tasks() []TaskView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TaskView, 0, len(s.tasks))
	for _, t := range s.tasks {
		out = append(out, s.viewLocked(t))
	}
	return out
}
