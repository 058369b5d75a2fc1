package kern

import (
	"fmt"

	"repro/internal/costs"
	"repro/internal/filter"
	"repro/internal/mbuf"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// DefaultEndpointDepth is the default packet queue depth for an endpoint:
// the shared ring (SHM modes) or port queue (IPC mode). Arriving packets
// are dropped when the queue is full, as on the real interfaces.
const DefaultEndpointDepth = 512

// Packet is a received frame queued at an endpoint.
type Packet struct {
	Frame   []byte
	Owned   bool // simnet.Frame.Owned: the receiver hands the storage back
	Arrived sim.Time
	Payload int // transport payload length, for cost accounting
}

// Endpoint is a packet delivery target: the kernel side of a packet
// filter port (IPC mode) or shared ring (SHM modes). One endpoint may
// have several filters installed (for example, an OS server's fallback
// endpoint).
type Endpoint struct {
	host    *Host
	queue   sim.Ring[Packet]
	shallow [4]Packet // queue's first array: four queued packets grow none
	depth   int
	avail   sim.Cond
	filters []int
	closed  bool

	Delivered metrics.Counter
	Drops     metrics.Counter
}

// pending returns the number of queued packets.
func (e *Endpoint) pending() int { return e.queue.Len() }

// NewEndpoint creates an endpoint with the given queue depth (0 means
// DefaultEndpointDepth).
func (h *Host) NewEndpoint(depth int) *Endpoint {
	if depth <= 0 {
		depth = DefaultEndpointDepth
	}
	h.endpoints++
	e := &Endpoint{host: h, depth: depth}
	e.queue.Init(e.shallow[:])
	return e
}

// InstallFilter compiles spec and installs it for this endpoint at the
// given priority. It returns the filter ID.
func (e *Endpoint) InstallFilter(spec filter.MatchSpec, priority int) (int, error) {
	f, err := e.host.Filters.Install(filter.Compile(spec), spec, priority, e)
	if err != nil {
		return 0, err
	}
	e.filters = append(e.filters, f.ID)
	return f.ID, nil
}

// InstallProgram installs a raw filter program (used for the catch-all
// fallback filters).
func (e *Endpoint) InstallProgram(prog filter.Program, priority int) (int, error) {
	f, err := e.host.Filters.Install(prog, filter.MatchSpec{}, priority, e)
	if err != nil {
		return 0, err
	}
	e.filters = append(e.filters, f.ID)
	return f.ID, nil
}

// CatchAllProgram accepts every frame; OS servers and in-kernel stacks
// install it at low priority to receive everything sessions don't claim.
func CatchAllProgram() filter.Program {
	return filter.Program{{Op: filter.OpPushLit, Arg: 1}, {Op: filter.OpRet}}
}

// RemoveFilter uninstalls one filter by ID.
func (e *Endpoint) RemoveFilter(id int) {
	e.host.Filters.Remove(id)
	for i, fid := range e.filters {
		if fid == id {
			e.filters = append(e.filters[:i], e.filters[i+1:]...)
			return
		}
	}
}

// Close uninstalls all filters and wakes any blocked receivers, which
// will see ok=false. Closing a closed endpoint does nothing.
func (e *Endpoint) Close() {
	if e.closed {
		return
	}
	e.host.endpoints--
	for _, id := range e.filters {
		e.host.Filters.Remove(id)
	}
	e.filters = nil
	e.closed = true
	e.avail.Broadcast()
}

// deliver runs in event (interrupt) context after the delivery copy has
// been charged.
func (e *Endpoint) deliver(h *Host, f simnet.Frame, payload int) {
	if e.closed || e.pending() >= e.depth {
		if !e.closed {
			e.Drops.Inc()
			h.RxDropped.Inc()
		}
		if f.Owned {
			mbuf.Free(f.Data)
		}
		return
	}
	e.queue.Push(Packet{Frame: f.Data, Owned: f.Owned, Arrived: h.Sim.Now(), Payload: payload})
	e.Delivered.Inc()
	h.DeliveryBytes.Add(uint64(payload))
	switch h.Prof.Delivery {
	case costs.DeliverIPC:
		h.DeliveredIPC.Inc()
	case costs.DeliverSHM:
		h.DeliveredSHM.Inc()
	case costs.DeliverSHMIPF:
		h.DeliveredSHMIPF.Inc()
	}
	h.mQueueDepth.Observe(int64(e.pending()))
	e.avail.Signal()
}

// Recv dequeues the next packet, blocking until one arrives or the
// endpoint closes. In IPC delivery mode each dequeue pays the per-message
// receive cost; in the shared-memory modes the ring is drained directly.
func (e *Endpoint) Recv(p *sim.Proc) (Packet, bool) {
	waited := false
	for e.pending() == 0 && !e.closed {
		waited = true
		e.avail.Wait(p)
	}
	if e.pending() == 0 {
		return Packet{}, false
	}
	return e.take(p, waited), true
}

// take dequeues the next packet for p, which waited for it or not.
func (e *Endpoint) take(p *sim.Proc, waited bool) Packet {
	if waited {
		// How many packets accumulated while this receiver slept — the
		// effective wakeup batch size.
		e.host.Wakeups.Inc()
		e.host.mWakeBatch.Observe(int64(e.pending()))
	}
	pkt, _ := e.queue.Pop()
	e.host.mRxWait.Observe(int64(e.host.Sim.Now().Sub(pkt.Arrived)))
	if e.host.Prof.Delivery == costs.DeliverIPC {
		e.host.Charge(p, sim.TaskPriority, costs.CompIPCRecv, e.host.Prof.IPCRecvPerPacket.At(pkt.Payload))
	}
	return pkt
}

// Drain spawns a daemon thread of p under the full name it is given
// (callers build it once, not per endpoint), which hands input every
// frame the endpoint delivers, with its ownership, until it closes: the
// network input thread of every stack StackConfig builds. It is a loop
// thread: each wake-up runs Recv's loop over the queued packets and ends
// in a wait on the endpoint.
func (e *Endpoint) Drain(p *Process, name string, input func(t *sim.Proc, frame []byte, owned bool)) *sim.Proc {
	return p.Host.Sim.SpawnLoop(name, func(t *sim.Proc) sim.Wait {
		for waited := t.Woke(); ; waited = false {
			if e.pending() == 0 {
				if e.closed {
					return sim.Exit
				}
				return sim.WaitOn(&e.avail)
			}
			pkt := e.take(t, waited)
			input(t, pkt.Frame, pkt.Owned)
		}
	})
}

func (e *Endpoint) String() string {
	return fmt.Sprintf("endpoint(%s, %d queued, %d filters)", e.host.Name, e.pending(), len(e.filters))
}
