package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.After(30*time.Millisecond, func() { got = append(got, 3) })
	k.After(10*time.Millisecond, func() { got = append(got, 1) })
	k.After(20*time.Millisecond, func() { got = append(got, 2) })
	end := k.Run()
	if want := DefaultEpoch.Add(30 * time.Millisecond); !end.Equal(want) {
		t.Errorf("end time = %v, want %v", end, want)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("event order = %v, want [1 2 3]", got)
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.After(time.Second, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("simultaneous events out of order: %v", got)
		}
	}
}

func TestPastEventClamped(t *testing.T) {
	k := NewKernel()
	fired := false
	k.After(time.Second, func() {
		k.At(k.Now().Add(-time.Hour), func() { fired = true })
	})
	k.Run()
	if !fired {
		t.Fatal("event scheduled in the past never fired")
	}
	if k.Now() != DefaultEpoch.Add(time.Second) {
		t.Fatalf("clock moved backwards: %v", k.Now())
	}
}

func TestProcSleepAccumulates(t *testing.T) {
	k := NewKernel()
	var wake []time.Duration
	k.Spawn("sleeper", func(ctx Context) {
		for i := 0; i < 5; i++ {
			ctx.Sleep(100 * time.Millisecond)
			wake = append(wake, ctx.Now().Sub(DefaultEpoch))
		}
	})
	k.Run()
	if len(wake) != 5 {
		t.Fatalf("wakeups = %d, want 5", len(wake))
	}
	for i, w := range wake {
		want := time.Duration(i+1) * 100 * time.Millisecond
		if w != want {
			t.Errorf("wake[%d] = %v, want %v", i, w, want)
		}
	}
	if k.LiveProcs() != 0 {
		t.Errorf("LiveProcs = %d after Run, want 0", k.LiveProcs())
	}
}

func TestManyProcsDeterministic(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var log []string
		for i := 0; i < 20; i++ {
			name := string(rune('a' + i))
			d := time.Duration((i*7)%13+1) * time.Millisecond
			k.Spawn(name, func(ctx Context) {
				for j := 0; j < 3; j++ {
					ctx.Sleep(d)
					log = append(log, ctx.Name())
				}
			})
		}
		k.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != 60 || len(b) != 60 {
		t.Fatalf("log lengths = %d, %d; want 60", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestSpawnFromProc(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("parent", func(ctx Context) {
		order = append(order, "parent-start")
		k.Spawn("child", func(c Context) {
			order = append(order, "child-start")
			c.Sleep(time.Second)
			order = append(order, "child-end")
		})
		ctx.Sleep(2 * time.Second)
		order = append(order, "parent-end")
	})
	k.Run()
	want := []string{"parent-start", "child-start", "child-end", "parent-end"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFutureWaitAndResolve(t *testing.T) {
	k := NewKernel()
	f := NewFuture[int](k)
	var got int
	var waited time.Duration
	k.Spawn("waiter", func(ctx Context) {
		v, err := f.Wait(ctx.(*Proc))
		if err != nil {
			t.Errorf("Wait err = %v", err)
		}
		got = v
		waited = ctx.Now().Sub(DefaultEpoch)
	})
	k.After(3*time.Second, func() { f.Resolve(42, nil) })
	k.Run()
	if got != 42 {
		t.Errorf("value = %d, want 42", got)
	}
	if waited != 3*time.Second {
		t.Errorf("resolved at %v, want 3s", waited)
	}
}

func TestFutureAlreadyResolved(t *testing.T) {
	k := NewKernel()
	f := NewFuture[string](k)
	f.Resolve("ready", nil)
	f.Resolve("ignored", nil) // second resolve is a no-op
	var got string
	k.Spawn("waiter", func(ctx Context) {
		got, _ = f.Wait(ctx.(*Proc))
	})
	k.Run()
	if got != "ready" {
		t.Errorf("value = %q, want %q", got, "ready")
	}
}

func TestFutureOnDone(t *testing.T) {
	k := NewKernel()
	f := NewFuture[int](k)
	calls := 0
	f.OnDone(func(v int, err error) {
		if v != 7 {
			t.Errorf("callback v = %d", v)
		}
		calls++
	})
	k.After(time.Second, func() { f.Resolve(7, nil) })
	k.Run()
	f.OnDone(func(v int, err error) { calls++ }) // post-resolution subscription
	k.Run()
	if calls != 2 {
		t.Errorf("callback calls = %d, want 2", calls)
	}
}

func TestMultipleWaitersAllWake(t *testing.T) {
	k := NewKernel()
	f := NewFuture[int](k)
	woke := 0
	for i := 0; i < 8; i++ {
		k.Spawn("w", func(ctx Context) {
			f.Wait(ctx.(*Proc))
			woke++
		})
	}
	k.After(time.Minute, func() { f.Resolve(1, nil) })
	k.Run()
	if woke != 8 {
		t.Errorf("woke = %d, want 8", woke)
	}
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	k := NewKernel()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 5 * time.Second} {
		d := d
		k.After(d, func() { fired = append(fired, d) })
	}
	k.RunUntil(DefaultEpoch.Add(3 * time.Second))
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want first two", fired)
	}
	if got := k.Now(); !got.Equal(DefaultEpoch.Add(3 * time.Second)) {
		t.Errorf("Now = %v, want epoch+3s", got)
	}
	k.Run()
	if len(fired) != 3 {
		t.Errorf("remaining event did not fire: %v", fired)
	}
}

func TestProcPanicRecovered(t *testing.T) {
	k := NewKernel()
	k.Spawn("boom", func(ctx Context) {
		ctx.Sleep(time.Second)
		panic("kaboom")
	})
	survived := false
	k.Spawn("ok", func(ctx Context) {
		ctx.Sleep(2 * time.Second)
		survived = true
	})
	k.Run()
	if err := k.Err(); err == nil {
		t.Error("Err() = nil, want recorded panic")
	}
	if !survived {
		t.Error("panic in one proc killed the kernel")
	}
}

func TestBlockedProcReported(t *testing.T) {
	k := NewKernel()
	f := NewFuture[int](k)
	k.Spawn("stuck", func(ctx Context) { f.Wait(ctx.(*Proc)) })
	k.Run()
	if k.LiveProcs() != 1 {
		t.Errorf("LiveProcs = %d, want 1 (stuck proc)", k.LiveProcs())
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the final clock equals epoch + max delay.
func TestPropertyEventsSorted(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		k := NewKernel()
		var fired []time.Duration
		for _, r := range raw {
			d := time.Duration(r) * time.Millisecond
			k.After(d, func() { fired = append(fired, d) })
		}
		k.Run()
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		maxd := fired[len(fired)-1]
		return k.Now().Equal(DefaultEpoch.Add(maxd))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: a process performing a random walk of sleeps observes Now equal
// to the running sum of its sleeps.
func TestPropertySleepSum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		ok := true
		k.Spawn("walker", func(ctx Context) {
			var total time.Duration
			for i := 0; i < 50; i++ {
				d := time.Duration(rng.Intn(1000)) * time.Microsecond
				ctx.Sleep(d)
				total += d
				if ctx.Now().Sub(DefaultEpoch) != total {
					ok = false
					return
				}
			}
		})
		k.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestLiveRuntimeScaledClock(t *testing.T) {
	r := NewLiveRuntime(1000) // 1000 virtual seconds per real second
	epoch := r.Now()
	if since := time.Since(epoch); since < -time.Minute || since > time.Minute {
		t.Errorf("live epoch %v is not the wall clock (off by %v)", epoch, since)
	}
	var woke time.Duration
	r.Spawn("sleeper", func(ctx Context) {
		ctx.Sleep(10 * time.Second) // 10ms real
		woke = ctx.Now().Sub(epoch)
	})
	r.Wait()
	if woke < 10*time.Second || woke > 5*time.Minute {
		t.Errorf("virtual wake time = %v, want >=10s and well under 5m", woke)
	}
}

func TestLiveRuntimeAfterFunc(t *testing.T) {
	r := NewLiveRuntime(1000)
	done := make(chan struct{})
	r.AfterFunc(5*time.Second, func() { close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("AfterFunc did not fire")
	}
	r.Wait()
}
