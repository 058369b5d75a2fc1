package sim

import "time"

// Cond is a virtual-time condition variable. Because the simulation is
// logically single-threaded, no mutex is needed: a waiter's predicate
// cannot change between testing it and calling Wait. The usual pattern
// still applies:
//
//	for !pred() {
//		cond.Wait(p)
//	}
//
// The queue holds the waiting Procs themselves, and the "signalled" flag
// lives on the Proc: a proc waits on at most one Cond at a time and a
// Proc is never reused, so a wait needs no record of its own. The longest
// waiter sits inline in first, later ones in a Ring, so a Cond that never
// has two waiters at once never allocates.
type Cond struct {
	first *Proc       // longest waiter; nil only when the queue is empty
	rest  Ring[*Proc] // the others, in order
}

func (c *Cond) push(p *Proc) {
	p.signalled = false
	if c.first == nil {
		c.first = p
	} else {
		c.rest.Push(p)
	}
}

// pop removes and returns the longest waiter, nil if none; the next one
// moves into first.
func (c *Cond) pop() *Proc {
	p := c.first
	c.first, _ = c.rest.Pop()
	return p
}

// Wait parks the calling process until Signal or Broadcast. Stray wakeup
// tokens (for example, from an unrelated Unpark banked while the process
// was running) are absorbed by re-parking, so Wait returns only on a real
// signal.
func (c *Cond) Wait(p *Proc) {
	c.push(p)
	for !p.signalled {
		p.Park()
	}
}

// WaitTimeout parks for at most d; it reports whether the process was
// signalled (true) rather than timed out (false).
func (c *Cond) WaitTimeout(p *Proc, d time.Duration) bool {
	c.push(p)
	deadline := p.Now().Add(d)
	for !p.signalled {
		remain := deadline.Sub(p.Now())
		if (remain <= 0 || !p.ParkTimeout(remain)) && !p.signalled {
			c.remove(p)
			return false
		}
	}
	return true
}

func (c *Cond) remove(p *Proc) {
	if c.first == p {
		c.pop()
		return
	}
	for i := range c.rest.Len() {
		if c.rest.At(i) == p {
			c.rest.Remove(i)
			return
		}
	}
}

// Signal wakes the longest-waiting process, if any.
func (c *Cond) Signal() {
	if p := c.pop(); p != nil {
		p.signalled = true
		p.Unpark()
	}
}

// Broadcast wakes all waiting processes.
func (c *Cond) Broadcast() {
	for c.first != nil {
		c.Signal()
	}
}

// Waiters returns the number of processes currently waiting.
func (c *Cond) Waiters() int {
	if c.first == nil {
		return 0
	}
	return 1 + c.rest.Len()
}

// WaitGroup counts outstanding work in virtual time.
type WaitGroup struct {
	n    int
	cond Cond
}

// Add adds delta to the counter.
func (wg *WaitGroup) Add(delta int) {
	wg.n += delta
	if wg.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if wg.n == 0 {
		wg.cond.Broadcast()
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait parks until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	for wg.n > 0 {
		wg.cond.Wait(p)
	}
}

// Chan is an unbounded FIFO message queue in virtual time.
type Chan[T any] struct {
	items    Ring[T]
	closed   bool
	notEmpty Cond
}

// NewChan returns an empty queue.
func NewChan[T any]() *Chan[T] { return &Chan[T]{} }

// Close marks the queue closed. Receivers drain remaining items and then
// see ok=false; senders panic, as on a native Go channel.
func (q *Chan[T]) Close() {
	q.closed = true
	q.notEmpty.Broadcast()
}

// Send enqueues v.
func (q *Chan[T]) Send(v T) {
	if q.closed {
		panic("sim: send on closed Chan")
	}
	q.items.Push(v)
	q.notEmpty.Signal()
}

// Waiting returns the number of receivers parked on the empty queue.
func (q *Chan[T]) Waiting() int { return q.notEmpty.Waiters() }

// Recv dequeues an item, parking while the queue is empty. ok is false if
// the queue is closed and drained.
func (q *Chan[T]) Recv(p *Proc) (v T, ok bool) {
	for q.items.Len() == 0 && !q.closed {
		q.notEmpty.Wait(p)
	}
	return q.items.Pop()
}

// Poll is Recv for a loop proc's body: the next item, or ok false and
// the wait to end the run in, WaitOn the queue while it is empty and
// Exit once it is closed and drained.
func (q *Chan[T]) Poll() (v T, ok bool, w Wait) {
	if q.items.Len() == 0 && !q.closed {
		return v, false, WaitOn(&q.notEmpty)
	}
	v, ok = q.items.Pop()
	return v, ok, Exit
}

// Mutex is a virtual-time mutual-exclusion lock with FIFO handoff. The
// protocol stack uses one as its splnet equivalent: cooperative
// scheduling means threads only interleave at yields (CPU charges,
// sleeps), but protocol entry points yield constantly, so protocol state
// still needs explicit serialization exactly as it does in BSD.
type Mutex struct {
	held bool
	cond Cond
}

// Lock acquires the mutex, parking until it is free.
func (m *Mutex) Lock(t *Proc) {
	for m.held {
		m.cond.Wait(t)
	}
	m.held = true
}

// TryLock acquires the mutex if it is free.
func (m *Mutex) TryLock() bool {
	if m.held {
		return false
	}
	m.held = true
	return true
}

// Unlock releases the mutex and wakes the longest waiter.
func (m *Mutex) Unlock() {
	if !m.held {
		panic("sim: unlock of unheld Mutex")
	}
	m.held = false
	m.cond.Signal()
}

// Held reports whether the mutex is currently held.
func (m *Mutex) Held() bool { return m.held }

// Idle reports whether the mutex is free with no waiter queued: only then
// is Lock followed by Unlock a no-op (a free mutex can still have waiters
// queued behind the one its last Unlock signalled).
func (m *Mutex) Idle() bool { return !m.held && m.cond.Waiters() == 0 }
