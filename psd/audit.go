package psd

import (
	"fmt"
	"time"
)

// The end-of-run audit: every conservation law of a run, in one ordered
// list. Set-up, teardown and the port namespace live in the OS server and
// established sessions in the libraries, so a run is right only if
// sessions, ports, filters and frames balance when it ends. New laws join
// auditLaws; they are not new check functions.
var auditLaws = []struct {
	name    string
	drained bool // reads the registry or the network at rest: drained runs only
	check   func(n *Network, snap *MetricsSnapshot, plan int) error
}{
	{"ledger", false, auditLedger},
	{"trunks", true, auditTrunks},
	{"dispatch", false, auditDispatch},
	{"conns", true, auditConns},
	{"residue", true, auditResidue},
}

// Audit checks the run's conservation laws in order and returns the
// first failure as "<law>: …". snap is the run's final registry snapshot
// and plan the TCP connections the runner expects opened; drained says
// the run idled out its TIME_WAITs, port quarantines and conntrack
// timeouts. An undrained audit checks only the ledger and dispatch laws
// and reads neither snap nor plan. A passing audit allocates nothing.
func (n *Network) Audit(snap *MetricsSnapshot, plan int, drained bool) error {
	for _, l := range auditLaws {
		if l.drained && !drained {
			continue
		}
		if err := l.check(n, snap, plan); err != nil {
			return fmt.Errorf("%s: %w", l.name, err)
		}
	}
	return nil
}

// auditLedger: every host's CPU ledger sums to the time its CPU was busy
// plus the charges still waiting for it. A charge enters the ledger when
// it is asked for and the CPU's busy time when it is admitted, so a run
// stopped while the CPU is contended leaves the difference waiting.
func auditLedger(n *Network, _ *MetricsSnapshot, _ int) error {
	for _, h := range n.hosts {
		var sum time.Duration
		for c := range h.kern.Ledger {
			sum += time.Duration(h.kern.Ledger[c].Value())
		}
		cpu := &h.kern.CPU
		if busy, waiting := cpu.BusyTime(), cpu.Waiting(); sum != busy+waiting {
			return fmt.Errorf("%s: the ledger sums to %d ns, the CPU was busy %d ns with %d ns waiting", h.name, sum, busy, waiting)
		}
	}
	return nil
}

// auditTrunks: every frame a trunk direction sent or duplicated was
// delivered or dropped with a cause, and every delivery was received on
// the far end.
func auditTrunks(n *Network, _ *MetricsSnapshot, _ int) error {
	for _, t := range n.trunks {
		for i, nic := range t.dirs {
			st := nic.DirStats()
			sent, delivered := st.FramesSent.Value()+st.FramesDup.Value(), st.DeliveryEvents.Value()
			if lost := st.FramesDropped() + st.PartitionDrops.Value(); sent != delivered+lost {
				return fmt.Errorf("%s: sent+dup %d != delivered %d + dropped %d", nic.Name(), sent, delivered, lost)
			}
			if recv := t.dirs[1-i].RxFrames.Value(); delivered != recv {
				return fmt.Errorf("%s: delivered %d != peer received %d", nic.Name(), delivered, recv)
			}
		}
	}
	return nil
}

// auditDispatch: the per-shard event counts sum to the group's total.
func auditDispatch(n *Network, _ *MetricsSnapshot, _ int) error {
	if n.group == nil {
		return nil
	}
	var sum uint64
	for _, s := range n.group.Shards() {
		sum += s.Dispatched()
	}
	if total := n.group.Dispatched(); sum != total {
		return fmt.Errorf("per-shard counts sum to %d, the group total is %d", sum, total)
	}
	return nil
}

// auditConns: every architecture's stacks completed at least the planned
// active opens; the OS servers tore down or orphan-aborted every
// connection they set up, and reaped every session they made.
func auditConns(_ *Network, snap *MetricsSnapshot, plan int) error {
	c := readChurnLaws(snap)
	if got := snap.Sum(".connect_ns"); got < int64(plan) {
		return fmt.Errorf("%d connections opened, want >= %d", got, plan)
	}
	if c.ConnSetups != c.ConnTeardowns+c.OrphansAborted {
		return fmt.Errorf("setups %d != teardowns %d + orphans aborted %d", c.ConnSetups, c.ConnTeardowns, c.OrphansAborted)
	}
	if c.SessionsMade != c.SessionsReaped {
		return fmt.Errorf("sessions made %d != reaped %d", c.SessionsMade, c.SessionsReaped)
	}
	return nil
}

// residueGauges are the registry gauges a drained network holds at zero.
var residueGauges = []string{".core.sessions", ".core.ports_in_use", ".sockets", ".tcp_state.established", ".tcp_state.close_wait",
	".tcp_state.time_wait", ".ct.flows", ".lb.snat_in_use"}

// auditResidue: the drain left no session, port, socket, ESTABLISHED,
// CLOSE_WAIT or TIME_WAIT connection, conntrack flow or SNAT port, and
// every host is back to its one standing endpoint.
func auditResidue(n *Network, snap *MetricsSnapshot, _ int) error {
	for _, g := range residueGauges {
		if v := snap.Sum(g); v != 0 {
			return fmt.Errorf("%s = %d after the drain", g[1:], v)
		}
	}
	for _, h := range n.hosts {
		if e := h.kern.Endpoints(); e != 1 {
			return fmt.Errorf("%s holds %d endpoints, want its one standing endpoint", h.name, e)
		}
	}
	return nil
}
