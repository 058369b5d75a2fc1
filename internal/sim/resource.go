package sim

import "time"

// Resource models a serially-shared device such as a CPU or a half-duplex
// network medium. Work is admitted FIFO within two priority bands:
// interrupt-level work queue-jumps task-level work but does not preempt a
// charge already in progress. This mirrors how the paper's uniprocessor
// hosts interleave interrupt handling with user and server execution at
// the granularity the cost model cares about.
type Resource struct {
	Name string

	busy     bool
	queue    [2]Ring[*resWaiter] // by Priority: the task band, the interrupt band
	freeW    Free[resWaiter]
	busyTime time.Duration
	waiting  time.Duration // charges queued or granted but not yet in busyTime
	uses     int
}

// resWaiter is one queued admission. Waiters are pooled per resource:
// the steady state charges, releases, and re-charges without allocating.
type resWaiter struct {
	proc    *Proc         // proc-style waiter (Use)
	done    func()        // event-style continuation (UseEvent)
	d       time.Duration // charge duration for event-style waiters
	r       *Resource
	granted bool
}

// Priority selects the admission band for resource use.
type Priority int

const (
	// TaskPriority is ordinary process-level work.
	TaskPriority Priority = iota
	// IntrPriority is interrupt-level work; it is admitted ahead of all
	// queued task-level work.
	IntrPriority
)

func (r *Resource) getWaiter() *resWaiter {
	if w := r.freeW.Get(); w != nil {
		return w
	}
	return &resWaiter{r: r}
}

func (r *Resource) putWaiter(w *resWaiter) {
	w.proc, w.done, w.d, w.granted = nil, nil, 0, false
	r.freeW.Put(w)
}

// Use charges d of exclusive time on the resource on behalf of p,
// blocking until the resource grants it. A zero or negative duration still
// performs admission (useful for pure serialization points).
func (r *Resource) Use(p *Proc, pri Priority, d time.Duration) {
	if r.busy {
		w := r.getWaiter()
		w.proc = p
		r.waiting += d
		r.queue[pri].Push(w)
		for !w.granted {
			p.Park()
		}
		r.waiting -= d
		r.putWaiter(w)
	} else {
		r.busy = true
	}
	r.uses++
	r.busyTime += d
	if d > 0 {
		p.Sleep(d)
	}
	r.release(p.sim)
}

// UseEvent charges d of exclusive time from event context (no Proc), then
// runs done. It is used by interrupt handlers, which are events rather
// than processes. The expiry is a first-class scheduler event (no timer
// closures), and the waiter record is pooled.
func (r *Resource) UseEvent(s *Sim, pri Priority, d time.Duration, done func()) {
	w := r.getWaiter()
	w.done, w.d = done, d
	if r.busy {
		r.waiting += d
		r.queue[pri].Push(w)
		return
	}
	r.busy = true
	r.grant(s, w)
}

// grant starts an event-style waiter's charge: the scheduler runs its
// continuation and releases the resource when the charge expires (see
// Sim.dispatch).
func (r *Resource) grant(s *Sim, w *resWaiter) {
	r.uses++
	r.busyTime += w.d
	ev := s.schedule(s.now.Add(w.d), nil, nil)
	ev.rw = w
}

func (r *Resource) release(s *Sim) {
	next, _ := r.queue[IntrPriority].Pop()
	if next == nil {
		next, _ = r.queue[TaskPriority].Pop()
	}
	if next == nil {
		r.busy = false
		return
	}
	if next.proc != nil {
		next.granted = true
		next.proc.Unpark()
		return
	}
	r.waiting -= next.d
	r.grant(s, next)
}

// BusyTime returns the total virtual time the resource has been charged.
func (r *Resource) BusyTime() time.Duration { return r.busyTime }

// Waiting returns the charge time asked of the resource that BusyTime
// does not hold yet: charges still queued for admission, and granted
// Use charges whose proc has not resumed. It is non-zero only while the
// resource is contended.
func (r *Resource) Waiting() time.Duration { return r.waiting }

// Uses returns the number of grants made.
func (r *Resource) Uses() int { return r.uses }
