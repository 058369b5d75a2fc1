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
type Cond struct {
	waiters []*condWaiter
	head    int           // first live waiter; backing array is reused
	free    []*condWaiter // recycled waiter records
}

type condWaiter struct {
	p     *Proc
	woken bool
}

func (c *Cond) getWaiter(p *Proc) *condWaiter {
	var w *condWaiter
	if n := len(c.free); n > 0 {
		w = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		w.p, w.woken = p, false
	} else {
		w = &condWaiter{p: p}
	}
	c.waiters = append(c.waiters, w)
	return w
}

func (c *Cond) putWaiter(w *condWaiter) {
	w.p = nil
	c.free = append(c.free, w)
}

// pop removes and returns the longest waiter, nil if none. The head index
// walks forward and resets when the queue drains, so steady-state
// wait/signal traffic reuses the same backing array.
func (c *Cond) pop() *condWaiter {
	if c.head >= len(c.waiters) {
		return nil
	}
	w := c.waiters[c.head]
	c.waiters[c.head] = nil
	c.head++
	if c.head == len(c.waiters) {
		c.waiters = c.waiters[:0]
		c.head = 0
	}
	return w
}

// Wait parks the calling process until Signal or Broadcast. Stray wakeup
// tokens (for example, from an unrelated Unpark banked while the process
// was running) are absorbed by re-parking, so Wait returns only on a real
// signal.
func (c *Cond) Wait(p *Proc) {
	w := c.getWaiter(p)
	for !w.woken {
		p.Park()
	}
	c.putWaiter(w)
}

// WaitTimeout parks for at most d; it reports whether the process was
// signalled (true) rather than timed out (false).
func (c *Cond) WaitTimeout(p *Proc, d time.Duration) bool {
	w := c.getWaiter(p)
	deadline := p.Now().Add(d)
	for !w.woken {
		remain := deadline.Sub(p.Now())
		if remain <= 0 || !p.ParkTimeout(remain) && !w.woken {
			if !w.woken {
				c.remove(w)
				c.putWaiter(w)
				return false
			}
		}
	}
	c.putWaiter(w)
	return true
}

func (c *Cond) remove(w *condWaiter) {
	for i := c.head; i < len(c.waiters); i++ {
		if c.waiters[i] == w {
			copy(c.waiters[i:], c.waiters[i+1:])
			c.waiters[len(c.waiters)-1] = nil
			c.waiters = c.waiters[:len(c.waiters)-1]
			if c.head == len(c.waiters) {
				c.waiters = c.waiters[:0]
				c.head = 0
			}
			return
		}
	}
}

// Signal wakes the longest-waiting process, if any.
func (c *Cond) Signal() {
	if w := c.pop(); w != nil {
		w.woken = true
		w.p.Unpark()
	}
}

// Broadcast wakes all waiting processes.
func (c *Cond) Broadcast() {
	for {
		w := c.pop()
		if w == nil {
			return
		}
		w.woken = true
		w.p.Unpark()
	}
}

// Waiters returns the number of processes currently waiting.
func (c *Cond) Waiters() int { return len(c.waiters) - c.head }

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

// Chan is an unbounded FIFO message queue in virtual time. The backing
// array is reused: the head index advances on receive and resets when
// the queue drains.
type Chan[T any] struct {
	items    []T
	head     int
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
	q.items = append(q.items, v)
	q.notEmpty.Signal()
}

// Recv dequeues an item, parking while the queue is empty. ok is false if
// the queue is closed and drained.
func (q *Chan[T]) Recv(p *Proc) (v T, ok bool) {
	for q.head == len(q.items) && !q.closed {
		q.notEmpty.Wait(p)
	}
	if q.head == len(q.items) {
		return v, false
	}
	v = q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v, true
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
