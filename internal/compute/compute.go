// Package compute is the federated function-as-a-service layer standing in
// for Globus Compute (funcX): clients register named functions, submit
// invocations to a compute endpoint, and poll task status. The endpoint
// acquires nodes from the batch scheduler (internal/scheduler) exactly as
// the paper's Polaris endpoint acquires nodes through PBS, and the paper's
// fused "metadata extraction + image processing in a single function"
// optimization is expressed as a single registered function.
//
// Two executors implement task execution: LocalExecutor, here, runs real
// function bodies on a bounded worker pool for live end-to-end flows; the
// simulator's SchedExecutor (internal/lab) runs tasks under the scheduler
// with a per-function cost model (and can optionally execute the real Go
// function body too).
package compute

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"picoprobe/internal/auth"
)

// Args is the JSON-able argument map passed to functions.
type Args map[string]any

// Result is the JSON-able result map returned by functions.
type Result map[string]any

// Function is a registered remotely invocable function.
type Function struct {
	// Name identifies the function to Submit.
	Name string
	// Env is the software environment the function needs (drives the
	// scheduler's cache warm-up).
	Env string
	// Run is the real implementation, executed by LocalExecutor (and by
	// lab.SchedExecutor when RunReal is set).
	Run func(args Args) (Result, error)
	// Cost models the node-seconds the function consumes in simulation.
	Cost func(args Args) time.Duration
}

// Registry holds registered functions.
type Registry struct {
	mu  sync.RWMutex
	fns map[string]Function
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fns: map[string]Function{}} }

// Register adds a function; re-registering a name replaces it.
func (r *Registry) Register(fn Function) error {
	if fn.Name == "" {
		return fmt.Errorf("compute: function missing name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fns[fn.Name] = fn
	return nil
}

// Get looks up a function by name.
func (r *Registry) Get(name string) (Function, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fn, ok := r.fns[name]
	return fn, ok
}

// Names returns the registered function names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.fns))
	for n := range r.fns {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TaskStatus is the lifecycle state of a compute task.
type TaskStatus string

// Task lifecycle states.
const (
	StatusActive    TaskStatus = "ACTIVE"
	StatusSucceeded TaskStatus = "SUCCEEDED"
	StatusFailed    TaskStatus = "FAILED"
)

// TaskView is the read-only task state returned to clients.
type TaskView struct {
	ID        string
	Function  string
	Status    TaskStatus
	Error     string
	Result    Result
	Submitted time.Time
	Started   time.Time
	Completed time.Time
	// NodeID is the compute node the task ran on (-1 if not applicable).
	NodeID int
	// Provisioned/Warmed report whether the task paid node provisioning
	// or environment warm-up (first-flow penalties in the paper).
	Provisioned, Warmed bool
}

type task struct {
	view TaskView
}

// Executor runs a function invocation asynchronously and reports completion
// exactly once.
type Executor interface {
	Exec(fn Function, args Args, done func(ExecReport))
}

// ExecReport is the executor's account of one finished invocation.
type ExecReport struct {
	Result      Result
	Err         error
	Started     time.Time
	NodeID      int
	Provisioned bool
	Warmed      bool
}

// LocalExecutor runs real function bodies on a bounded worker pool. It is
// the live-mode analog of a warm compute endpoint.
type LocalExecutor struct {
	sem chan struct{}
	now func() time.Time
}

// NewLocalExecutor returns an executor running at most workers tasks
// concurrently.
func NewLocalExecutor(workers int, now func() time.Time) *LocalExecutor {
	if workers <= 0 {
		workers = 1
	}
	if now == nil {
		now = time.Now
	}
	return &LocalExecutor{sem: make(chan struct{}, workers), now: now}
}

// Exec implements Executor.
func (e *LocalExecutor) Exec(fn Function, args Args, done func(ExecReport)) {
	go func() {
		e.sem <- struct{}{}
		defer func() { <-e.sem }()
		started := e.now()
		rep := ExecReport{Started: started, NodeID: 0}
		func() {
			defer func() {
				if r := recover(); r != nil {
					rep.Err = fmt.Errorf("compute: function %q panicked: %v", fn.Name, r)
				}
			}()
			if fn.Run == nil {
				rep.Err = fmt.Errorf("compute: function %q has no body", fn.Name)
				return
			}
			rep.Result, rep.Err = fn.Run(args)
		}()
		done(rep)
	}()
}

// Service is the cloud-hosted task API: submit a function invocation, poll
// its status.
type Service struct {
	mu       sync.Mutex
	issuer   *auth.Issuer
	registry *Registry
	executor Executor
	now      func() time.Time
	tasks    map[string]*task
	watchers map[string][]func() // task ID -> Watch callbacks until terminal
	nextID   int
}

// NewService returns a compute service.
func NewService(issuer *auth.Issuer, registry *Registry, executor Executor, now func() time.Time) *Service {
	return &Service{
		issuer:   issuer,
		registry: registry,
		executor: executor,
		now:      now,
		tasks:    map[string]*task{},
		watchers: map[string][]func(){},
	}
}

// Submit invokes a registered function asynchronously, returning a task ID.
func (s *Service) Submit(token, fnName string, args Args) (string, error) {
	if _, err := s.issuer.Verify(token, auth.ScopeCompute); err != nil {
		return "", err
	}
	fn, ok := s.registry.Get(fnName)
	if !ok {
		return "", fmt.Errorf("compute: unknown function %q", fnName)
	}
	s.mu.Lock()
	s.nextID++
	tk := &task{view: TaskView{
		ID:        fmt.Sprintf("task-%06d", s.nextID),
		Function:  fnName,
		Status:    StatusActive,
		Submitted: s.now(),
		NodeID:    -1,
	}}
	s.tasks[tk.view.ID] = tk
	s.mu.Unlock()

	s.executor.Exec(fn, args, func(rep ExecReport) {
		s.mu.Lock()
		tk.view.Started = rep.Started
		tk.view.Completed = s.now()
		tk.view.NodeID = rep.NodeID
		tk.view.Provisioned = rep.Provisioned
		tk.view.Warmed = rep.Warmed
		if rep.Err != nil {
			tk.view.Status = StatusFailed
			tk.view.Error = rep.Err.Error()
		} else {
			tk.view.Status = StatusSucceeded
			tk.view.Result = rep.Result
		}
		watchers := s.watchers[tk.view.ID]
		delete(s.watchers, tk.view.ID)
		s.mu.Unlock()
		for _, done := range watchers {
			done()
		}
	})
	return tk.view.ID, nil
}

// Watch calls done once the task has finished (the executor reported),
// and at once when it already has or is unknown.
func (s *Service) Watch(taskID string, done func()) {
	s.mu.Lock()
	if tk, ok := s.tasks[taskID]; ok && tk.view.Status == StatusActive {
		s.watchers[taskID] = append(s.watchers[taskID], done)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	done()
}

// Status returns the task's current state.
func (s *Service) Status(token, taskID string) (TaskView, error) {
	if _, err := s.issuer.Verify(token, auth.ScopeCompute); err != nil {
		return TaskView{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tk, ok := s.tasks[taskID]
	if !ok {
		return TaskView{}, fmt.Errorf("compute: unknown task %q", taskID)
	}
	return tk.view, nil
}
