package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// blockingRemote answers every key with 1 once release is closed,
// reporting how many job slots are held while it waits.
type blockingRemote struct {
	waiting chan int64
	release chan struct{}
}

func (r blockingRemote) Exec(ctx context.Context, key string) (json.RawMessage, bool, error) {
	r.waiting <- jobsRunning.Load()
	<-r.release
	return json.RawMessage("1"), true, nil
}

// TestCPUBudget pins the budget's accounting on a forced 4-slot budget:
// a borrow takes at most the idle slots (the caller counting as one),
// GOMAXPROCS busy workers leave nothing to borrow, a job waiting on a
// remote answer holds no slot, and every slot comes back when a job
// panics, when its context is cancelled and when Run returns.
func TestCPUBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	settled := func(name string) {
		t.Helper()
		if jobs, lent := jobsRunning.Load(), cpusLent.Load(); jobs != 0 || lent != 0 {
			t.Fatalf("%s: %d job slots and %d lent slots still held, want 0", name, jobs, lent)
		}
	}

	// blocked runs n jobs on an n-worker engine, each holding its slot
	// until release is closed, and calls during once all are running.
	blocked := func(n int, during func()) {
		started, release := make(chan struct{}), make(chan struct{})
		jobs := make([]Job[int], n)
		for i := range jobs {
			jobs[i] = Job[int]{Key: fmt.Sprintf("blocked-%d-%d", n, i), Run: func(context.Context) (int, error) {
				started <- struct{}{}
				<-release
				return i, nil
			}}
		}
		done := make(chan error)
		go func() {
			_, err := Run(context.Background(), NewEngine(n), jobs)
			done <- err
		}()
		for range jobs {
			<-started
		}
		during()
		close(release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	if got := BorrowCPUs(8); got != 3 {
		t.Fatalf("idle budget lent %d slots, want 3 (GOMAXPROCS 4 less the caller)", got)
	}
	if got := BorrowCPUs(1); got != 0 {
		t.Fatalf("exhausted budget lent %d more slots", got)
	}
	ReturnCPUs(3)
	if got := BorrowCPUs(2); got != 2 {
		t.Fatalf("borrow of 2 from an idle budget took %d", got)
	}
	ReturnCPUs(2)
	settled("borrow")

	blocked(2, func() {
		if got := BorrowCPUs(8); got != 2 {
			t.Fatalf("with 2 of 4 slots held a borrow took %d, want 2", got)
		} else {
			ReturnCPUs(got)
		}
	})
	settled("two busy workers")

	blocked(runtime.GOMAXPROCS(0), func() {
		if got := BorrowCPUs(1); got != 0 {
			t.Fatalf("GOMAXPROCS busy workers left %d slots to borrow, want 0", got)
		}
	})
	settled("GOMAXPROCS busy workers")

	_, err := Run(context.Background(), NewEngine(2), []Job[int]{
		{Key: "panics", Run: func(context.Context) (int, error) { panic("boom") }},
		{Key: "fine", Run: func(context.Context) (int, error) { return 1, nil }},
	})
	if err == nil {
		t.Fatal("panicking job reported no error")
	}
	settled("panic")

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	go func() {
		<-started
		cancel()
	}()
	_, err = Run(ctx, NewEngine(1), []Job[int]{{Key: "cancelled", Run: func(ctx context.Context) (int, error) {
		close(started)
		<-ctx.Done()
		return 0, ctx.Err()
	}}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	settled("cancel")

	e := NewEngine(1)
	r := blockingRemote{waiting: make(chan int64), release: make(chan struct{})}
	e.SetRemote(r)
	done := make(chan error)
	go func() {
		_, err := Run(context.Background(), e, []Job[int]{{Key: "remote", Run: func(context.Context) (int, error) {
			return 0, errors.New("ran locally")
		}}})
		done <- err
	}()
	if held := <-r.waiting; held != 0 {
		t.Fatalf("a job waiting on a remote answer held %d slots, want 0", held)
	}
	close(r.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	settled("remote")
}
