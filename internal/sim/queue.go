package sim

// queue is the event queue: a binary min-heap of instant runs.
//
// Protocol timers tick on a shared grid, so many events fall on one
// instant, and they are mostly scheduled back to back (the procs woken
// at one tick each sleep to the next). A run is a FIFO of band-0 events
// at one instant, linked through event.next; its heap slot holds, by
// value, the key of the event that opened it. A band-1 delivery always
// gets a slot of its own. A local schedule takes the next seq, the
// largest yet, so appending it to the latest run of its instant puts it
// after every queued band-0 event at that instant, which is where
// (at, band, origin, seq) order puts it: the pop order is the order of
// the keys, by construction. Runs of one instant never interleave (a
// newer run's events all follow an older run's), so a slot keeps its
// first key while its head pops, and a pop from a run longer than one
// moves no slot.
//
// The only run a schedule probes is last's: the event queued by the
// previous local schedule is the tail of the latest run of its instant
// until it pops. A schedule at any other instant opens a new run, which
// is always correct, only slower.
type queue struct {
	slots  []slot
	last   *event // the previous local schedule's event, until it pops
	lastAt Time   // and its instant
}

// slot is one run in the heap, keyed by (at, key). key packs the rest of
// the event key into one word that orders the same way: seq for a run
// of band-0 events, 1<<63 | origin<<40 | oseq for a band-1 delivery.
type slot struct {
	at   Time
	key  uint64
	head *event
}

func (a *slot) before(b *slot) bool {
	return a.at < b.at || a.at == b.at && a.key < b.key
}

// pushLocal queues the band-0 event ev keyed (at, 0, 0, seq); seq is
// larger than any queued band-0 key.
func (q *queue) pushLocal(at Time, seq uint64, ev *event) {
	ev.queued = true
	if q.last != nil && q.lastAt == at {
		q.last.next = ev
	} else {
		q.open(slot{at: at, key: seq, head: ev})
	}
	q.last, q.lastAt = ev, at
}

// pushRemote queues the band-1 delivery ev keyed (at, 1, origin, oseq)
// in a slot of its own. Origins count links and oseq a link's frames, so
// both stay far inside their fields.
func (q *queue) pushRemote(at Time, origin, oseq uint64, ev *event) {
	if origin >= 1<<23 || oseq >= 1<<40 {
		panic("sim: a delivery's origin or sequence number does not fit the queue's key")
	}
	ev.queued = true
	q.open(slot{at: at, key: 1<<63 | origin<<40 | oseq, head: ev})
}

// pop removes and returns the earliest event; the queue is not empty.
// A pop from a run longer than one moves no slot; the last event of a
// run takes its slot out, moving children up until the heap's last slot
// finds its place.
func (q *queue) pop() *event {
	h := q.slots
	ev := h[0].head
	ev.queued = false
	if ev.next != nil {
		h[0].head, ev.next = ev.next, nil
		return ev
	}
	if ev == q.last {
		q.last = nil
	}
	n := len(h) - 1
	last := h[n]
	h[n] = slot{}
	h = h[:n]
	q.slots = h
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && h[c+1].before(&h[c]) {
			c++
		}
		if !h[c].before(&last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	return ev
}

// open inserts s, moving parents down until its place is found.
func (q *queue) open(s slot) {
	h := append(q.slots, s)
	i := len(h) - 1
	for i > 0 && s.before(&h[(i-1)/2]) {
		h[i] = h[(i-1)/2]
		i = (i - 1) / 2
	}
	h[i] = s
	q.slots = h
}
