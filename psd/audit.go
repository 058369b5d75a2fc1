package psd

import (
	"fmt"
	"time"
)

// law is one named check of a finished run: a conservation law of the
// audit or a bound of a scenario. check reads the network, its final
// registry snapshot and the TCP connections the runner planned. An audit
// law returns true, "" when it holds, so a passing audit allocates
// nothing; a bound always says what it read, so a report shows its margin.
type law struct {
	name  string
	check func(n *Network, snap *MetricsSnapshot, plan int) (ok bool, detail string)
}

// The end-of-run audit: every conservation law of a run, in one ordered
// list. Set-up, teardown and the port namespace live in the OS server and
// established sessions in the libraries, so a run is right only if
// sessions, ports, filters and frames balance when it ends. New laws join
// auditLaws; they are not new check functions. The ledger law comes
// first: it is the one law that also holds on a run stopped mid-flight.
var auditLaws = []law{
	{"ledger", auditLedger},
	{"trunks", auditTrunks},
	{"conns", auditConns},
	{"residue", auditResidue},
}

// Audit checks the run's conservation laws in order and returns the
// first failure as "<law>: …". snap is the run's final registry snapshot
// and plan the TCP connections the runner expects opened; drained says
// the run idled out its TIME_WAITs, port quarantines and conntrack
// timeouts. An undrained audit checks only the ledger law and reads
// neither snap nor plan. A passing audit allocates nothing.
func (n *Network) Audit(snap *MetricsSnapshot, plan int, drained bool) error {
	laws := auditLaws
	if !drained {
		laws = laws[:1]
	}
	for _, l := range laws {
		if ok, detail := l.check(n, snap, plan); !ok {
			return fmt.Errorf("%s: %s", l.name, detail)
		}
	}
	return nil
}

// auditLedger: every host's CPU ledger sums to the time its CPU was busy
// plus the charges still waiting for it. A charge enters the ledger when
// it is asked for and the CPU's busy time when it is admitted, so a run
// stopped while the CPU is contended leaves the difference waiting.
func auditLedger(n *Network, _ *MetricsSnapshot, _ int) (bool, string) {
	for _, h := range n.hosts {
		var sum time.Duration
		for c := range h.kern.Ledger {
			sum += time.Duration(h.kern.Ledger[c].Value())
		}
		cpu := &h.kern.CPU
		if busy, waiting := cpu.BusyTime(), cpu.Waiting(); sum != busy+waiting {
			return false, fmt.Sprintf("%s: the ledger sums to %d ns, the CPU was busy %d ns with %d ns waiting", h.name, sum, busy, waiting)
		}
	}
	return true, ""
}

// auditTrunks: every frame a trunk direction sent or duplicated was
// delivered or dropped with a cause, and every delivery was received on
// the far end.
func auditTrunks(n *Network, _ *MetricsSnapshot, _ int) (bool, string) {
	for _, t := range n.trunks {
		for i, nic := range t.dirs {
			st := nic.DirStats()
			sent, delivered := st.FramesSent.Value()+st.FramesDup.Value(), st.DeliveryEvents.Value()
			if lost := st.FramesDropped() + st.PartitionDrops.Value(); sent != delivered+lost {
				return false, fmt.Sprintf("%s: sent+dup %d != delivered %d + dropped %d", nic.Name(), sent, delivered, lost)
			}
			if recv := t.dirs[1-i].RxFrames.Value(); delivered != recv {
				return false, fmt.Sprintf("%s: delivered %d != peer received %d", nic.Name(), delivered, recv)
			}
		}
	}
	return true, ""
}

// auditConns: every architecture's stacks completed at least the planned
// active opens; the OS servers tore down or orphan-aborted every
// connection they set up, and reaped every session they made.
func auditConns(_ *Network, snap *MetricsSnapshot, plan int) (bool, string) {
	c := readChurnLaws(snap)
	if got := snap.Sum(".connect_ns"); got < int64(plan) {
		return false, fmt.Sprintf("%d connections opened, want >= %d", got, plan)
	}
	if c.ConnSetups != c.ConnTeardowns+c.OrphansAborted {
		return false, fmt.Sprintf("setups %d != teardowns %d + orphans aborted %d", c.ConnSetups, c.ConnTeardowns, c.OrphansAborted)
	}
	if c.SessionsMade != c.SessionsReaped {
		return false, fmt.Sprintf("sessions made %d != reaped %d", c.SessionsMade, c.SessionsReaped)
	}
	return true, ""
}

// residueGauges are the registry gauges a drained network holds at zero.
var residueGauges = []string{".core.sessions", ".core.ports_in_use", ".sockets", ".tcp_state.established", ".tcp_state.close_wait",
	".tcp_state.time_wait", ".ct.flows", ".lb.snat_in_use"}

// auditResidue: the drain left no session, port, socket, ESTABLISHED,
// CLOSE_WAIT or TIME_WAIT connection, conntrack flow or SNAT port, and
// every host is back to its one standing endpoint.
func auditResidue(n *Network, snap *MetricsSnapshot, _ int) (bool, string) {
	for _, g := range residueGauges {
		if v := snap.Sum(g); v != 0 {
			return false, fmt.Sprintf("%s = %d after the drain", g[1:], v)
		}
	}
	for _, h := range n.hosts {
		if e := h.kern.Endpoints(); e != 1 {
			return false, fmt.Sprintf("%s holds %d endpoints, want its one standing endpoint", h.name, e)
		}
	}
	return true, ""
}

// quantileAtMost: quantile q of every histogram whose name ends in
// suffix, merged across hosts, is at most bound. It fails when no
// histogram recorded a sample: a bound over an idle metric is a
// misconfigured scenario, not a pass.
func quantileAtMost(name, suffix string, q float64, bound time.Duration) law {
	return law{name, func(n *Network, _ *MetricsSnapshot, _ int) (bool, string) {
		h := n.reg.MergedHistogram(suffix)
		c := h.Count()
		if c == 0 {
			return false, fmt.Sprintf("no samples under *%s", suffix)
		}
		v := time.Duration(h.Quantile(q))
		return v <= bound, fmt.Sprintf("p%g(*%s) = %v (bound %v, n=%d)", q*100, suffix, v, bound, c)
	}}
}

// ratioAtMost: sum(*num)/sum(*den) is at most max. A zero denominator
// passes only if the numerator is also zero.
func ratioAtMost(name, num, den string, max float64) law {
	return law{name, func(_ *Network, snap *MetricsSnapshot, _ int) (bool, string) {
		a, b := snap.Sum(num), snap.Sum(den)
		if b == 0 {
			return a == 0, fmt.Sprintf("sum(*%s) = %d with sum(*%s) = 0", num, a, den)
		}
		ratio := float64(a) / float64(b)
		return ratio <= max, fmt.Sprintf("sum(*%s)/sum(*%s) = %d/%d = %.4f (max %.4f)", num, den, a, b, ratio, max)
	}}
}

// sumAtLeast: the instruments ending in suffix sum to at least min (the
// scenario did the work it is about).
func sumAtLeast(name, suffix string, min int64) law {
	return law{name, func(_ *Network, snap *MetricsSnapshot, _ int) (bool, string) {
		v := snap.Sum(suffix)
		return v >= min, fmt.Sprintf("sum(*%s) = %d (min %d)", suffix, v, min)
	}}
}

// sumZero: the instruments ending in suffix sum to exactly zero.
func sumZero(name, suffix string) law {
	return law{name, func(_ *Network, snap *MetricsSnapshot, _ int) (bool, string) {
		v := snap.Sum(suffix)
		return v == 0, fmt.Sprintf("sum(*%s) = %d (want 0)", suffix, v)
	}}
}
