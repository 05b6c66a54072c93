package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			hits := make([]int32, n)
			err := For(context.Background(), workers, n, func(i int) error {
				atomic.AddInt32(&hits[i], 1)
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForResultsMatchSequential(t *testing.T) {
	const n = 500
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 2, 8} {
		got := make([]int, n)
		_ = For(context.Background(), workers, n, func(i int) error {
			got[i] = i * i
			return nil
		})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: got[%d]=%d want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestForErrLowestIndexWins: the reported error is the lowest failing
// index's regardless of schedule, and a failure stops dispatch.
func TestForErrLowestIndexWins(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	for _, workers := range []int{1, 4, 16} {
		// Indices 3 and 40 fail; the reported error must always be
		// index 3's.
		err := For(context.Background(), workers, 64, func(i int) error {
			switch i {
			case 3:
				return errA
			case 40:
				return errB
			}
			return nil
		})
		if err != errA {
			t.Fatalf("workers=%d: got %v, want errA", workers, err)
		}

		// Every index from 17 on fails. Until the first failure returns,
		// at most 17 passing indices and one in-flight index per worker
		// are claimed; after it, each worker claims at most one more.
		var ran atomic.Int64
		err = For(context.Background(), workers, 1000, func(i int) error {
			ran.Add(1)
			if i >= 17 {
				return fmt.Errorf("boom %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "boom 17" {
			t.Errorf("workers=%d: err = %v, want boom 17 (lowest failing index)", workers, err)
		}
		if got, limit := ran.Load(), int64(17+2*workers); got > limit {
			t.Errorf("workers=%d: %d indices ran after the first failure, want <= %d", workers, got, limit)
		}
	}
}

func TestForErrNoError(t *testing.T) {
	if err := For(context.Background(), 4, 32, func(i int) error { return nil }); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	for _, workers := range []int{0, 1, 4} {
		if err := For(context.Background(), workers, 0, func(i int) error { return errors.New("never") }); err != nil {
			t.Fatalf("workers=%d: n=0 must not run f: %v", workers, err)
		}
	}
}

// TestForCancellation: a cancelled context stops dispatch and is
// reported as ctx.Err(), while a task error that already happened wins
// over the cancellation, keeping the report deterministic.
func TestForCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := For(ctx, workers, 100, func(i int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: For on cancelled ctx = %v, want context.Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Errorf("workers=%d: %d indices dispatched after cancellation", workers, ran.Load())
		}
		if err := For(ctx, workers, 0, func(int) error { return nil }); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: n=0 on cancelled ctx = %v, want context.Canceled", workers, err)
		}
	}

	// Mid-flight cancellation from inside an early index: later indices
	// must not all run.
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var count atomic.Int64
		err := For(ctx, workers, 1000, func(i int) error {
			if i == 3 {
				cancel()
			}
			count.Add(1)
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: mid-flight cancel = %v, want context.Canceled", workers, err)
		}
		if count.Load() == 1000 {
			t.Errorf("workers=%d: cancellation did not stop dispatch", workers)
		}
	}

	// A failure that cancels: the task error is reported, not ctx.Err().
	boom := errors.New("boom")
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	err := For(ctx2, 1, 10, func(i int) error {
		if i == 2 {
			cancel2()
			return boom
		}
		return nil
	})
	if err != boom {
		t.Errorf("failing index that cancels: err = %v, want boom", err)
	}
}

func TestDefaultAndResolve(t *testing.T) {
	t.Setenv(EnvVar, "")
	SetDefault(0)
	defer SetDefault(0)
	if d := Default(); d < 1 {
		t.Fatalf("Default() = %d, want >= 1", d)
	}
	SetDefault(3)
	if d := Default(); d != 3 {
		t.Fatalf("after SetDefault(3): Default() = %d", d)
	}
	if r := Resolve(5); r != 5 {
		t.Fatalf("Resolve(5) = %d", r)
	}
	if r := Resolve(0); r != 3 {
		t.Fatalf("Resolve(0) = %d, want 3 (SetDefault)", r)
	}
	SetDefault(0)
	t.Setenv(EnvVar, "7")
	if d := Default(); d != 7 {
		t.Fatalf("env=7: Default() = %d", d)
	}
	t.Setenv(EnvVar, "bogus")
	if d := Default(); d < 1 {
		t.Fatalf("bogus env: Default() = %d, want >= 1", d)
	}
}

func BenchmarkForOverhead(b *testing.B) {
	// Fork/join cost for a trivially small body: the floor under which
	// parallelizing a loop cannot pay off.
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var sink atomic.Int64
			for b.Loop() {
				_ = For(context.Background(), workers, 64, func(i int) error {
					sink.Add(int64(i))
					return nil
				})
			}
		})
	}
}
