package parallel

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 100} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			hits := make([]int32, n)
			For(workers, n, func(i int) {
				atomic.AddInt32(&hits[i], 1)
			})
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
		For(workers, n, func(i int) { got[i] = i * i })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: got[%d]=%d want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestForErrLowestIndexWins(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	for _, workers := range []int{1, 4, 16} {
		// Indices 3 and 40 fail; the reported error must always be
		// index 3's regardless of schedule.
		err := ForErr(workers, 64, func(i int) error {
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
	}
}

func TestForErrNoError(t *testing.T) {
	if err := ForErr(4, 32, func(i int) error { return nil }); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if err := ForErr(4, 0, func(i int) error { return errors.New("never") }); err != nil {
		t.Fatalf("n=0 must not run f: %v", err)
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
				For(workers, 64, func(i int) { sink.Add(int64(i)) })
			}
		})
	}
}
