package sim

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestRingKeepsOrder: a ring holds its items in push order across wrap,
// growth and removal from the middle, against a slice model over random
// operations, whether it starts empty or on caller storage; its array
// never grows past twice the deepest the queue has been (or the storage
// it started on), and every slot an item left holds the zero value.
func TestRingKeepsOrder(t *testing.T) {
	t.Run("wrap then grow", func(t *testing.T) {
		var r Ring[int]
		r.Init(make([]int, 0, 4))
		for i := range 4 {
			r.Push(i)
		}
		r.Pop()
		r.Pop()
		r.Push(4)
		r.Push(5) // wraps: the live items are buf[2:4] and buf[:2]
		r.Push(6) // grows from the full, wrapped array
		var got []int
		for v, ok := r.Pop(); ok; v, ok = r.Pop() {
			got = append(got, v)
		}
		if want := []int{2, 3, 4, 5, 6}; !slices.Equal(got, want) {
			t.Fatalf("popped %v, want %v", got, want)
		}
	})
	for _, start := range []int{0, 1, 4} {
		rng := rand.New(rand.NewSource(int64(start) + 1))
		var r Ring[*int]
		if start > 0 {
			r.Init(make([]*int, start))
		}
		var model []*int
		peak := 0
		for op := range 20000 {
			switch k := rng.Intn(10); {
			case k < 5 && len(model) < 200:
				v := new(int)
				*v = op
				r.Push(v)
				model = append(model, v)
			case k < 8:
				v, ok := r.Pop()
				if ok != (len(model) > 0) || ok && v != model[0] {
					t.Fatalf("start %d op %d: Pop = %v, %v; model %v", start, op, v, ok, model)
				}
				if ok {
					model = model[1:]
				}
			case len(model) > 0:
				i := rng.Intn(len(model))
				r.Remove(i)
				model = slices.Delete(model, i, i+1)
			}
			peak = max(peak, len(model))
			if r.Len() != len(model) {
				t.Fatalf("start %d op %d: Len %d, model %d", start, op, r.Len(), len(model))
			}
			for i, v := range model {
				if r.At(i) != v {
					t.Fatalf("start %d op %d: At(%d) = %p, model %p", start, op, i, r.At(i), v)
				}
			}
			for i := len(model); i < r.Cap(); i++ {
				if r.buf[r.slot(i)] != nil {
					t.Fatalf("start %d op %d: free slot %d still holds an item", start, op, r.slot(i))
				}
			}
			if c := r.Cap(); c > max(2*peak, start) {
				t.Fatalf("start %d op %d: array of %d for a peak depth of %d", start, op, c, peak)
			}
		}
	}
}

// TestRingAllocatesNothingWarm: pushes and pops within the depth a ring
// has reached allocate nothing, however many items pass through.
func TestRingAllocatesNothingWarm(t *testing.T) {
	var r Ring[int]
	for i := range 8 {
		r.Push(i)
	}
	if n := testing.AllocsPerRun(1000, func() {
		v, _ := r.Pop()
		r.Push(v)
	}); n != 0 {
		t.Errorf("a warm push and pop allocate %.2f objects, want 0", n)
	}
}

// TestResourceQueueSizedByPeakDepth: a resource whose queue never
// empties for 1e5 grants, four procs taking turns, keeps its waiter
// array at no more than twice the deepest the queue has been. (A queue
// that reused its array only once it drained grew by one slot a push.)
func TestResourceQueueSizedByPeakDepth(t *testing.T) {
	s := New(1)
	defer s.Close()
	r := &Resource{Name: "cpu"}
	const procs, grants = 4, 100000
	peak, idle := 0, 0
	for i := range procs {
		s.SpawnDaemon("user", func(p *Proc) {
			p.Sleep(time.Duration(i)) // queue up in turn
			for r.Uses() < grants {
				r.Use(p, TaskPriority, time.Microsecond)
				if d := r.queue[TaskPriority].Len(); d == 0 {
					idle++
				} else {
					peak = max(peak, d)
				}
			}
		})
	}
	if err := s.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if r.Uses() < grants || idle > procs {
		t.Fatalf("%d grants, %d with no waiter queued: the resource was not under continuous contention", r.Uses(), idle)
	}
	if peak == 0 || peak >= procs {
		t.Fatalf("peak depth %d seen with %d procs", peak, procs)
	}
	if c := r.queue[TaskPriority].Cap(); c > 2*(procs-1) {
		t.Errorf("waiter array of %d after %d grants, peak depth at most %d", c, r.Uses(), procs-1)
	}
}
