package compute

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestServiceWatchFiresOncePerTask: Watch fires exactly once per task,
// from the executor's report — on success, error and panic alike — after
// the terminal status is readable, and at once for a finished or unknown
// task.
func TestServiceWatchFiresOncePerTask(t *testing.T) {
	iss, tok, reg := setup(t)
	release := make(chan struct{})
	reg.Register(Function{Name: "ok", Run: func(Args) (Result, error) { <-release; return Result{"y": 1}, nil }})
	reg.Register(Function{Name: "panic", Run: func(Args) (Result, error) { <-release; panic("ouch") }})
	svc := NewService(iss, reg, NewLocalExecutor(2, nil), time.Now)
	for _, tc := range []struct {
		fn   string
		want TaskStatus
	}{{"ok", StatusSucceeded}, {"panic", StatusFailed}} {
		id, err := svc.Submit(tok, tc.fn, nil)
		if err != nil {
			t.Fatal(err)
		}
		var fired atomic.Int32
		seen := make(chan TaskStatus, 2)
		svc.Watch(id, func() {
			fired.Add(1)
			v, _ := svc.Status(tok, id)
			seen <- v.Status
		})
		release <- struct{}{}
		select {
		case got := <-seen:
			if got != tc.want {
				t.Errorf("%s: status at signal = %s, want %s", tc.fn, got, tc.want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: watch never fired", tc.fn)
		}
		svc.Watch(id, func() { fired.Add(1) }) // finished: at once
		time.Sleep(10 * time.Millisecond)
		if got := fired.Load(); got != 2 {
			t.Errorf("%s: fired %d times, want 2 (report + finished watch)", tc.fn, got)
		}
	}
	unknown := false
	svc.Watch("task-999", func() { unknown = true })
	if !unknown {
		t.Error("watch of an unknown task did not fire at once")
	}
}
