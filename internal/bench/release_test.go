package bench

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// collected reports whether the object a finalizer was set on with
// watch has been freed, after up to 20 collections.
func collected(freed chan struct{}) bool {
	for try := 0; try < 20; try++ {
		runtime.GC()
		select {
		case <-freed:
			return true
		case <-time.After(10 * time.Millisecond):
		}
	}
	return false
}

// watch makes a sentinel that only s's event queue holds and returns a
// channel closed once it is freed: the sim and everything only it
// reaches were collected.
func watch(s *sim.Sim) chan struct{} {
	freed := make(chan struct{})
	sentinel := &struct {
		p   *int
		pad [4]int
	}{}
	runtime.SetFinalizer(sentinel, func(any) { close(freed) })
	s.At(sim.Time(100*time.Hour), func() { runtime.KeepAlive(sentinel) })
	return freed
}

// TestDroppedWorldsAreCollected: a World that ran a workload and drained
// (the input thread still inside a run when the last application thread
// exited has finished it) holds no coroutine, and dropped without a
// Close it is collected, on every column; build-run-drop reps leave the
// goroutine count flat. The timer threads, input threads and service
// workers are loop procs parked between runs, and every run hands its
// sim's idle coroutines back to the pool.
func TestDroppedWorldsAreCollected(t *testing.T) {
	for _, cfg := range Columns() {
		var goroutines []int
		for rep := range 5 {
			w := streamWorld(nil, cfg, false)
			freed := watch(w.Sim)
			if r := runStreamOn(w, "ttcp", cfg.RcvBufKB, 64<<10, 0); r.Err != nil {
				t.Fatalf("%s: %v", cfg.Name, r.Err)
			}
			if err := w.Sim.RunFor(time.Second); err != nil {
				t.Fatal(err)
			}
			if n := w.Sim.Coroutines(); n != 0 {
				t.Errorf("%s: a drained world holds %d coroutines, want 0", cfg.Name, n)
			}
			w = nil
			if !collected(freed) {
				t.Fatalf("%s, rep %d: the world outlived its run", cfg.Name, rep)
			}
			goroutines = append(goroutines, runtime.NumGoroutine())
		}
		// The first rep may grow the pool by what the column needs at once.
		for _, n := range goroutines[2:] {
			if n > goroutines[1] {
				t.Errorf("%s: goroutines after each build-run-drop rep %v, want flat after the first", cfg.Name, goroutines)
				break
			}
		}
	}
}
