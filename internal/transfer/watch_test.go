package transfer

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// steppedMover ends each move attempt when the test sends that attempt's
// outcome (nil: success) on outcomes; moves announces each attempt.
type steppedMover struct {
	outcomes chan error
	moves    chan struct{}
}

func (m *steppedMover) Move(task *Task, src, dst *Endpoint, done func(Report, error)) {
	m.moves <- struct{}{}
	go func() { done(Report{}, <-m.outcomes) }()
}

// TestServiceWatchFinalOutcomeOnly: Watch fires once when a task
// succeeds or fails for good, never between retry attempts, and at once
// for a task that is already terminal or unknown.
func TestServiceWatchFinalOutcomeOnly(t *testing.T) {
	iss, tok := issuerAndToken(t)
	for _, tc := range []struct {
		name     string
		outcomes []error
		want     TaskStatus
	}{
		{"fail then succeed", []error{errors.New("link dropped"), nil}, StatusSucceeded},
		{"fail every attempt", []error{errors.New("link dropped"), errors.New("link dropped")}, StatusFailed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := &steppedMover{outcomes: make(chan error), moves: make(chan struct{}, len(tc.outcomes))}
			svc := NewService(iss, m, time.Now, Options{MaxAttempts: len(tc.outcomes)})
			svc.RegisterEndpoint(Endpoint{ID: "src"})
			svc.RegisterEndpoint(Endpoint{ID: "dst"})
			id, err := svc.Submit(tok, "src", "dst", []FileSpec{{RelPath: "f.emdg"}})
			if err != nil {
				t.Fatal(err)
			}
			var fired atomic.Int32
			signalled := make(chan struct{}, 4)
			svc.Watch(id, func() {
				fired.Add(1)
				signalled <- struct{}{}
			})
			for i, out := range tc.outcomes {
				<-m.moves // attempt i is in flight
				if got := fired.Load(); got != 0 {
					t.Fatalf("watch fired %d time(s) before attempt %d ended", got, i+1)
				}
				m.outcomes <- out
			}
			select {
			case <-signalled:
			case <-time.After(5 * time.Second):
				t.Fatal("watch never fired")
			}
			view, err := svc.Status(tok, id)
			if err != nil || view.Status != tc.want {
				t.Fatalf("status at signal = %s (%v), want %s", view.Status, err, tc.want)
			}
			if view.Attempts != len(tc.outcomes) {
				t.Errorf("attempts = %d, want %d", view.Attempts, len(tc.outcomes))
			}
			// Already terminal: at once, synchronously.
			svc.Watch(id, func() { fired.Add(1) })
			if got := fired.Load(); got != 2 {
				t.Errorf("fired %d times, want 2 (final outcome + terminal watch)", got)
			}
		})
	}
	svc := NewService(iss, &steppedMover{}, time.Now, Options{})
	unknown := false
	svc.Watch("xfer-999", func() { unknown = true })
	if !unknown {
		t.Error("watch of an unknown task did not fire at once")
	}
}
