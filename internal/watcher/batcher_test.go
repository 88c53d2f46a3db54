package watcher

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// feed returns an event channel the test writes by hand, standing in for
// Watcher.Events so batching is fully deterministic.
func feed(events ...Event) chan Event {
	ch := make(chan Event, len(events)+16)
	for _, e := range events {
		ch <- e
	}
	return ch
}

func ev(name string, size int64) Event {
	return Event{Path: name, Size: size, ModTime: time.Unix(0, 0)}
}

func recvBatch(t *testing.T, b *Batcher, timeout time.Duration) Batch {
	t.Helper()
	select {
	case batch, ok := <-b.Batches():
		if !ok {
			t.Fatal("batches channel closed early")
		}
		return batch
	case <-time.After(timeout):
		t.Fatal("timed out waiting for batch")
	}
	return Batch{}
}

func noBatch(t *testing.T, b *Batcher, wait time.Duration) {
	t.Helper()
	select {
	case batch := <-b.Batches():
		t.Fatalf("unexpected batch: %+v", batch)
	case <-time.After(wait):
	}
}

// TestBatcherCoalescesByCount: a burst larger than MaxBatchFiles splits
// into full batches plus a linger-flushed tail, in settle order.
func TestBatcherCoalescesByCount(t *testing.T) {
	ch := feed()
	for i := 0; i < 7; i++ {
		ch <- ev(fmt.Sprintf("f%d", i), 100)
	}
	b := NewBatcher(ch, BatchOptions{MaxBatchFiles: 3, Linger: 20 * time.Millisecond})
	defer b.Stop()

	first := recvBatch(t, b, 2*time.Second)
	if len(first.Files) != 3 || first.Bytes != 300 || first.Seq != 1 {
		t.Fatalf("first batch = %+v", first)
	}
	if first.Files[0].Path != "f0" || first.Files[2].Path != "f2" {
		t.Errorf("order not preserved: %+v", first.Files)
	}
	second := recvBatch(t, b, 2*time.Second)
	if len(second.Files) != 3 || second.Seq != 2 {
		t.Fatalf("second batch = %+v", second)
	}
	// The seventh file is below threshold; the linger must flush it.
	tail := recvBatch(t, b, 2*time.Second)
	if len(tail.Files) != 1 || tail.Files[0].Path != "f6" {
		t.Fatalf("tail batch = %+v", tail)
	}
}

// TestBatcherCoalescesByBytes: the byte cap closes a batch even when the
// file cap has room.
func TestBatcherCoalescesByBytes(t *testing.T) {
	ch := feed(ev("a", 600), ev("b", 600), ev("c", 100))
	close(ch)
	b := NewBatcher(ch, BatchOptions{MaxBatchFiles: 100, MaxBatchBytes: 1000, Linger: time.Hour})
	first := recvBatch(t, b, 2*time.Second)
	if len(first.Files) != 1 || first.Files[0].Path != "a" {
		t.Fatalf("first batch = %+v (600+600 exceeds the 1000-byte cap)", first)
	}
	second := recvBatch(t, b, 2*time.Second)
	if len(second.Files) != 2 || second.Bytes != 700 {
		t.Fatalf("second batch = %+v", second)
	}
}

// TestBatcherOversizedFileStillTravels: one file above MaxBatchBytes is
// emitted as a batch of one rather than wedging the pipeline.
func TestBatcherOversizedFileStillTravels(t *testing.T) {
	ch := feed(ev("huge", 10_000))
	close(ch)
	b := NewBatcher(ch, BatchOptions{MaxBatchBytes: 1000, Linger: time.Hour})
	batch := recvBatch(t, b, 2*time.Second)
	if len(batch.Files) != 1 || batch.Bytes != 10_000 {
		t.Fatalf("batch = %+v", batch)
	}
}

// TestBatcherBackpressure: with a bytes-in-flight budget, the second
// batch is withheld until the first is acknowledged via Done.
func TestBatcherBackpressure(t *testing.T) {
	ch := feed(ev("a", 800), ev("b", 800))
	close(ch)
	b := NewBatcher(ch, BatchOptions{MaxBatchFiles: 1, BudgetBytes: 1000, Linger: time.Hour})
	first := recvBatch(t, b, 2*time.Second)
	if first.Files[0].Path != "a" {
		t.Fatalf("first batch = %+v", first)
	}
	// 800 in flight; another 800 would blow the 1000-byte budget.
	noBatch(t, b, 50*time.Millisecond)
	b.Done(first)
	second := recvBatch(t, b, 2*time.Second)
	if second.Files[0].Path != "b" {
		t.Fatalf("second batch = %+v", second)
	}
	b.Done(second)
	// The batcher counts a batch after the send that recvBatch just
	// observed; the source is closed, so the batch channel closing means
	// that accounting is done.
	if _, ok := <-b.Batches(); ok {
		t.Error("batches channel not closed after the source drained")
	}
	if st := b.Stats(); st.Batches != 2 || st.Files != 2 || st.MaxInFlightBytes != 800 {
		t.Errorf("stats = %+v", st)
	}
}

// TestBatcherFlushesOnClose: closing the event source flushes whatever is
// pending and closes the batch channel.
func TestBatcherFlushesOnClose(t *testing.T) {
	ch := feed(ev("a", 1), ev("b", 2))
	close(ch)
	b := NewBatcher(ch, BatchOptions{Linger: time.Hour})
	batch := recvBatch(t, b, 2*time.Second)
	if len(batch.Files) != 2 || batch.Bytes != 3 {
		t.Fatalf("batch = %+v", batch)
	}
	if _, ok := <-b.Batches(); ok {
		t.Error("batches channel not closed after source close")
	}
}

// TestBatcherLingerHoldsForBurst: behind batches that are held and not
// yet Done, Linger decides — events arriving within it join one batch
// instead of going out one by one.
func TestBatcherLingerHoldsForBurst(t *testing.T) {
	ch := feed(ev("first", 10))
	b := NewBatcher(ch, BatchOptions{MaxBatchFiles: 100, Linger: 150 * time.Millisecond})
	defer b.Stop()
	first := recvBatch(t, b, 2*time.Second) // held for the rest of the test
	if len(first.Files) != 1 {
		t.Fatalf("first batch = %+v", first)
	}
	start := time.Now()
	for i := 0; i < 4; i++ {
		ch <- ev(fmt.Sprintf("burst-%d", i), 10)
		time.Sleep(10 * time.Millisecond) // past the gather, inside the linger
	}
	batch := recvBatch(t, b, 2*time.Second)
	if len(batch.Files) != 4 {
		t.Fatalf("burst split: %+v", batch)
	}
	if waited := time.Since(start); waited < 150*time.Millisecond {
		t.Errorf("batch behind a held one left after %v, before its 150ms linger", waited)
	}
}

// TestBatcherIdleFlushesLoneFile: with nothing held, a lone file leaves
// after the gather, whatever Linger says.
func TestBatcherIdleFlushesLoneFile(t *testing.T) {
	ch := feed()
	b := NewBatcher(ch, BatchOptions{Linger: time.Hour})
	defer b.Stop()
	ch <- ev("lone", 10)
	batch := recvBatch(t, b, 50*time.Millisecond)
	if len(batch.Files) != 1 || batch.Files[0].Path != "lone" {
		t.Fatalf("batch = %+v", batch)
	}
}

// TestBatcherGatherKeepsBurstWhole: a burst reaching the batcher as groups
// a millisecond apart (one per inotify read) is not split at the group
// boundaries: the gather is a quiet gap, re-armed by every event. The
// budget admits one batch, so the full second batch waits for Done.
func TestBatcherGatherKeepsBurstWhole(t *testing.T) {
	ch := feed()
	b := NewBatcher(ch, BatchOptions{MaxBatchFiles: 8, BudgetBytes: 800, Linger: time.Hour})
	defer b.Stop()
	n := 0
	for _, group := range []int{5, 8, 3} {
		for i := 0; i < group; i++ {
			ch <- ev(fmt.Sprintf("f%02d", n), 100)
			n++
		}
		gap := time.Now()
		time.Sleep(time.Millisecond)
		if slept := time.Since(gap); slept >= idleGather {
			t.Skipf("the scheduler stretched a 1ms gap to %v, past the gather: a split here is the right answer", slept)
		}
	}
	first := recvBatch(t, b, 2*time.Second)
	if len(first.Files) != 8 || first.Files[0].Path != "f00" {
		t.Fatalf("first batch = %d file(s) from %s, want 8 from f00", len(first.Files), first.Files[0].Path)
	}
	noBatch(t, b, 4*idleGather)
	b.Done(first)
	second := recvBatch(t, b, 2*time.Second)
	if len(second.Files) != 8 || second.Files[0].Path != "f08" {
		t.Fatalf("second batch = %d file(s) from %s, want 8 from f08", len(second.Files), second.Files[0].Path)
	}
	noBatch(t, b, 4*idleGather)
}

// TestBatcherGroupCommitAtDone: files arriving while a batch is held
// accumulate and leave as one batch when it is Done — no Linger wait.
func TestBatcherGroupCommitAtDone(t *testing.T) {
	ch := feed()
	b := NewBatcher(ch, BatchOptions{MaxBatchFiles: 100, Linger: time.Hour})
	defer b.Stop()
	ch <- ev("first", 10)
	first := recvBatch(t, b, 2*time.Second)
	for i := 0; i < 5; i++ {
		ch <- ev(fmt.Sprintf("behind-%d", i), 10)
	}
	noBatch(t, b, 4*idleGather)
	b.Done(first)
	second := recvBatch(t, b, 50*time.Millisecond)
	if len(second.Files) != 5 {
		t.Fatalf("second batch = %+v, want the 5 files that arrived behind the first", second)
	}
}

// TestBatcherZeroByteBatchIsHeld: idle is a count of batches, not of
// bytes — a held batch of empty files keeps later files behind it.
func TestBatcherZeroByteBatchIsHeld(t *testing.T) {
	ch := feed(ev("empty-0", 0), ev("empty-1", 0))
	b := NewBatcher(ch, BatchOptions{MaxBatchFiles: 100, Linger: time.Hour})
	defer b.Stop()
	first := recvBatch(t, b, 2*time.Second)
	if len(first.Files) != 2 || first.Bytes != 0 {
		t.Fatalf("first batch = %+v", first)
	}
	ch <- ev("behind", 10)
	noBatch(t, b, 4*idleGather)
	b.Done(first)
	second := recvBatch(t, b, 50*time.Millisecond)
	if len(second.Files) != 1 || second.Files[0].Path != "behind" {
		t.Fatalf("second batch = %+v", second)
	}
}

// TestBatcherConcurrentDone hammers emission against concurrent Done
// calls (run under -race in CI).
func TestBatcherConcurrentDone(t *testing.T) {
	ch := make(chan Event, 256)
	b := NewBatcher(ch, BatchOptions{MaxBatchFiles: 4, BudgetBytes: 500, Linger: 5 * time.Millisecond})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for batch := range b.Batches() {
			go b.Done(batch)
		}
	}()
	for i := 0; i < 200; i++ {
		ch <- ev(fmt.Sprintf("f%d", i), int64(i%97))
	}
	close(ch)
	wg.Wait()
	if st := b.Stats(); st.Files != 200 {
		t.Errorf("files batched = %d, want 200", st.Files)
	}
}

// TestBatcherBudgetCapsBatchSize: the in-flight budget also bounds how
// large a multi-file batch may be cut — a burst bigger than the budget
// goes out in budget-sized pieces, not as one over-budget batch.
func TestBatcherBudgetCapsBatchSize(t *testing.T) {
	ch := feed(ev("a", 400), ev("b", 400), ev("c", 400))
	close(ch)
	b := NewBatcher(ch, BatchOptions{MaxBatchFiles: 100, BudgetBytes: 1000, Linger: time.Hour})
	first := recvBatch(t, b, 2*time.Second)
	if len(first.Files) != 2 || first.Bytes != 800 {
		t.Fatalf("first batch = %+v (3×400 exceeds the 1000-byte budget)", first)
	}
	b.Done(first)
	second := recvBatch(t, b, 2*time.Second)
	if len(second.Files) != 1 || second.Files[0].Path != "c" {
		t.Fatalf("second batch = %+v", second)
	}
	b.Done(second)
	if st := b.Stats(); st.MaxInFlightBytes > 1000 {
		t.Errorf("in-flight high-water %d exceeded the 1000-byte budget", st.MaxInFlightBytes)
	}
}
