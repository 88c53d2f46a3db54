package compute

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"picoprobe/internal/auth"
)

func setup(t *testing.T) (*auth.Issuer, string, *Registry) {
	t.Helper()
	iss := auth.NewIssuer([]byte("test"), nil)
	tok, err := iss.Issue("user", []string{auth.ScopeCompute}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return iss, tok, NewRegistry()
}

func TestRegistry(t *testing.T) {
	_, _, reg := setup(t)
	if err := reg.Register(Function{}); err == nil {
		t.Error("nameless function accepted")
	}
	reg.Register(Function{Name: "b"})
	reg.Register(Function{Name: "a"})
	if _, ok := reg.Get("a"); !ok {
		t.Error("registered function missing")
	}
	if _, ok := reg.Get("zz"); ok {
		t.Error("unknown function found")
	}
	names := reg.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("names = %v", names)
	}
}

func TestLocalExecutorRunsRealFunction(t *testing.T) {
	iss, tok, reg := setup(t)
	reg.Register(Function{
		Name: "double",
		Run: func(args Args) (Result, error) {
			v := args["x"].(int)
			return Result{"y": v * 2}, nil
		},
	})
	svc := NewService(iss, reg, NewLocalExecutor(2, nil), time.Now)
	id, err := svc.Submit(tok, "double", Args{"x": 21})
	if err != nil {
		t.Fatal(err)
	}
	view := waitLocal(t, svc, tok, id)
	if view.Status != StatusSucceeded {
		t.Fatalf("status = %s (%s)", view.Status, view.Error)
	}
	if view.Result["y"] != 42 {
		t.Errorf("result = %v", view.Result)
	}
}

func TestLocalExecutorFunctionError(t *testing.T) {
	iss, tok, reg := setup(t)
	reg.Register(Function{
		Name: "boom",
		Run:  func(Args) (Result, error) { return nil, fmt.Errorf("analysis exploded") },
	})
	svc := NewService(iss, reg, NewLocalExecutor(1, nil), time.Now)
	id, _ := svc.Submit(tok, "boom", nil)
	view := waitLocal(t, svc, tok, id)
	if view.Status != StatusFailed || view.Error == "" {
		t.Errorf("view = %+v", view)
	}
}

func TestLocalExecutorPanicRecovered(t *testing.T) {
	iss, tok, reg := setup(t)
	reg.Register(Function{Name: "panic", Run: func(Args) (Result, error) { panic("ouch") }})
	svc := NewService(iss, reg, NewLocalExecutor(1, nil), time.Now)
	id, _ := svc.Submit(tok, "panic", nil)
	view := waitLocal(t, svc, tok, id)
	if view.Status != StatusFailed {
		t.Errorf("status = %s", view.Status)
	}
}

func TestLocalExecutorNoBody(t *testing.T) {
	iss, tok, reg := setup(t)
	reg.Register(Function{Name: "empty"})
	svc := NewService(iss, reg, NewLocalExecutor(1, nil), time.Now)
	id, _ := svc.Submit(tok, "empty", nil)
	view := waitLocal(t, svc, tok, id)
	if view.Status != StatusFailed {
		t.Errorf("status = %s", view.Status)
	}
}

func TestLocalExecutorBoundedConcurrency(t *testing.T) {
	iss, tok, reg := setup(t)
	var mu sync.Mutex
	running, maxRunning := 0, 0
	reg.Register(Function{
		Name: "slow",
		Run: func(Args) (Result, error) {
			mu.Lock()
			running++
			if running > maxRunning {
				maxRunning = running
			}
			mu.Unlock()
			time.Sleep(10 * time.Millisecond)
			mu.Lock()
			running--
			mu.Unlock()
			return Result{}, nil
		},
	})
	svc := NewService(iss, reg, NewLocalExecutor(2, nil), time.Now)
	var ids []string
	for i := 0; i < 6; i++ {
		id, _ := svc.Submit(tok, "slow", nil)
		ids = append(ids, id)
	}
	for _, id := range ids {
		waitLocal(t, svc, tok, id)
	}
	if maxRunning > 2 {
		t.Errorf("max concurrency = %d, want <= 2", maxRunning)
	}
}

func TestAuthAndValidation(t *testing.T) {
	iss, tok, reg := setup(t)
	reg.Register(Function{Name: "fn", Run: func(Args) (Result, error) { return Result{}, nil }})
	svc := NewService(iss, reg, NewLocalExecutor(1, nil), time.Now)
	if _, err := svc.Submit("bad-token", "fn", nil); err == nil {
		t.Error("bad token accepted")
	}
	wrongScope, _ := iss.Issue("user", []string{auth.ScopeTransfer}, time.Hour)
	if _, err := svc.Submit(wrongScope, "fn", nil); err == nil {
		t.Error("wrong scope accepted")
	}
	if _, err := svc.Submit(tok, "unknown-fn", nil); err == nil {
		t.Error("unknown function accepted")
	}
	if _, err := svc.Status(tok, "task-999999"); err == nil {
		t.Error("unknown task accepted")
	}
}

func waitLocal(t *testing.T, svc *Service, tok, id string) TaskView {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		v, err := svc.Status(tok, id)
		if err != nil {
			t.Fatal(err)
		}
		if v.Status != StatusActive {
			return v
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("task never completed")
	return TaskView{}
}
