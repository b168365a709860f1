package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// liveWorkers counts the pool goroutines alive right now, from the "created
// by" line every goroutine started inside runTasks carries in a stack dump.
func liveWorkers() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return strings.Count(string(buf[:n]), "created by llmsql/internal/core.runTasks")
}

// awaitWorkers waits until exactly want pool goroutines are alive. A worker
// signals completion a moment before its goroutine is gone, so tests that
// count workers first await zero to let an earlier pool's stragglers exit.
func awaitWorkers(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for liveWorkers() != want {
		if time.Now().After(deadline) {
			t.Errorf("pool has %d live workers, waited for %d", liveWorkers(), want)
			return
		}
		runtime.Gosched()
	}
}

func TestRunTasksIsAFixedPool(t *testing.T) {
	for _, c := range []struct{ parallelism, n int }{{4, 1000}, {8, 3}, {4, 4}, {2, 5}} {
		want := min(c.parallelism, c.n)
		awaitWorkers(t, 0)
		var (
			running, highWater, started atomic.Int64
			arrived                     sync.WaitGroup
			workersSeen                 int
			counted                     = make(chan struct{})
		)
		arrived.Add(want)
		err := runTasks(c.parallelism, c.n, func(i int) error {
			started.Add(1)
			now := running.Add(1)
			defer running.Add(-1)
			for hw := highWater.Load(); now > hw && !highWater.CompareAndSwap(hw, now); hw = highWater.Load() {
			}
			if i < want {
				// The first want tasks hold their workers until all of them
				// are running at once: a pool smaller than want would hang
				// here, and a goroutine-per-task one shows in the count.
				arrived.Done()
				arrived.Wait()
				if i == 0 {
					workersSeen = liveWorkers()
					close(counted)
				}
				<-counted
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if workersSeen != want {
			t.Errorf("p=%d n=%d: %d pool goroutines, want min(p, n) = %d", c.parallelism, c.n, workersSeen, want)
		}
		if hw := highWater.Load(); hw > int64(c.parallelism) || hw < int64(want) {
			t.Errorf("p=%d n=%d: %d tasks ran at once, want %d", c.parallelism, c.n, hw, want)
		}
		if started.Load() != int64(c.n) {
			t.Errorf("p=%d n=%d: %d tasks ran", c.parallelism, c.n, started.Load())
		}
	}
}

// Claims are strictly ordered, so when a task begins, the tasks below it that
// have not begun yet are at most the other workers' one claimed task each.
func TestRunTasksStartsInIndexOrder(t *testing.T) {
	const parallelism, n = 4, 500
	var mu sync.Mutex
	begun := make([]bool, n)
	if err := runTasks(parallelism, n, func(i int) error {
		mu.Lock()
		defer mu.Unlock()
		begun[i] = true
		pending := 0
		for j := 0; j < i; j++ {
			if !begun[j] {
				pending++
			}
		}
		if pending > parallelism-1 {
			t.Errorf("task %d began with %d lower tasks not begun", i, pending)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// The higher-indexed failure is recorded first; the lower-indexed one must
// still be the error returned.
func TestRunTasksLowestIndexedErrorWinsWhateverTheOrder(t *testing.T) {
	awaitWorkers(t, 0)
	highFailed, lowFailing := make(chan struct{}), make(chan struct{})
	err := runTasks(4, 4, func(i int) error {
		switch i {
		case 1:
			<-highFailed
			awaitWorkers(t, 3) // task 3's worker has recorded its error and left
			close(lowFailing)
			return errors.New("task 1 failed")
		case 3:
			close(highFailed)
			return errors.New("task 3 failed")
		}
		<-lowFailing // tasks 0 and 2 keep their workers alive, so the count above is exact
		return nil
	})
	if err == nil || err.Error() != "task 1 failed" {
		t.Fatalf("want the lowest-indexed error, got %v", err)
	}
}

// Once a failure is visible to the pool, no worker claims another task. The
// test makes "visible" observable: the failing worker stores the flag and
// then exits, so the surviving worker's task waits for that exit before
// returning — whatever it does next happens after the failure was published.
func TestRunTasksClaimsNothingAfterAVisibleFailure(t *testing.T) {
	awaitWorkers(t, 0)
	oneStarted := make(chan struct{})
	var started [3]atomic.Bool
	err := runTasks(2, 3, func(i int) error {
		started[i].Store(true)
		switch i {
		case 0:
			<-oneStarted
			awaitWorkers(t, 1)
			return nil
		case 1:
			close(oneStarted)
			return fmt.Errorf("task %d failed", i)
		}
		return nil
	})
	if err == nil || err.Error() != "task 1 failed" {
		t.Fatalf("err = %v", err)
	}
	if started[2].Load() {
		t.Fatal("task 2 started after task 1's failure was visible")
	}
}

func TestRunTasksSerialFallbacks(t *testing.T) {
	for _, c := range []struct{ parallelism, n int }{{0, 5}, {-3, 5}, {1, 5}, {8, 1}, {8, 0}} {
		ran := 0
		if err := runTasks(c.parallelism, c.n, func(i int) error {
			if i != ran {
				t.Errorf("p=%d: task %d ran at position %d", c.parallelism, i, ran)
			}
			ran++ // unsynchronized on purpose: -race proves the path is serial
			return nil
		}); err != nil || ran != c.n {
			t.Fatalf("p=%d n=%d: ran %d, err %v", c.parallelism, c.n, ran, err)
		}
	}
}

var runTasksSink atomic.Int64

// BenchmarkRunTasks is the key-then-attr fan-out's shape: a thousand small
// tasks on four workers.
func BenchmarkRunTasks(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := runTasks(4, 1000, func(i int) error {
			runTasksSink.Add(int64(i))
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}
