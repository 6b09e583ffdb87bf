package mapreduce

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCollectsInOrder(t *testing.T) {
	in := []int{1, 2, 3, 4, 5}
	out, err := Run(Local(3), in, func(x int) (int, error) { return x * x, nil })
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 4, 9, 16, 25}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v", out)
		}
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(Local(2), []int{1, 2, 3}, func(x int) (int, error) {
		if x == 2 {
			return 0, boom
		}
		return x, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestBoundedParallelism(t *testing.T) {
	var cur, max int64
	_, err := Run(Local(2), make([]int, 20), func(int) (int, error) {
		c := atomic.AddInt64(&cur, 1)
		for {
			m := atomic.LoadInt64(&max)
			if c <= m || atomic.CompareAndSwapInt64(&max, m, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt64(&cur, -1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt64(&max); got > 2 {
		t.Fatalf("parallelism %d exceeded 2 workers", got)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	type rec struct {
		Name string
		Vals []int
	}
	in := []rec{{Name: "a", Vals: []int{1, 2}}, {Name: "b", Vals: []int{3}}}
	out, err := Run(Cluster{Nodes: 1, Cores: 2, Serialize: true}, in, func(r rec) (rec, error) {
		r.Vals = append(r.Vals, 99)
		return r, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Name != "a" || out[0].Vals[2] != 99 || out[1].Vals[1] != 99 {
		t.Fatalf("out = %v", out)
	}
}

func TestWorkersFloor(t *testing.T) {
	if (Cluster{}).Workers() != 1 {
		t.Fatalf("zero cluster should have 1 worker")
	}
	if Yarn(4, 2).Workers() != 8 {
		t.Fatalf("yarn workers wrong")
	}
}

func TestTaskLatencyCharged(t *testing.T) {
	c := Cluster{Nodes: 1, Cores: 1, TaskLatency: 5 * time.Millisecond}
	start := time.Now()
	if _, err := Run(c, make([]int, 4), func(int) (int, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("latency not charged: %v", elapsed)
	}
}

func TestEmptyInputs(t *testing.T) {
	out, err := Run(Local(2), nil, func(int) (int, error) { return 1, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty run: %v %v", out, err)
	}
}
