// Package arch is the one construction path for a simulated host: the
// paper's three architectures behind one small interface, so harnesses
// (internal/bench, psd) wire tracing, metrics and routes once instead
// of once per architecture.
package arch

import (
	"repro/internal/core"
	"repro/internal/costs"
	"repro/internal/kern"
	"repro/internal/metrics"
	"repro/internal/monolith"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/socketapi"
	"repro/internal/stack"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Kind selects the implementation architecture.
type Kind int

const (
	Kernel     Kind = iota // protocols in the kernel (Mach 2.5, Ultrix, 386BSD)
	Server                 // protocols in a user-level server (UX, BNR2SS)
	Decomposed             // OS server plus per-application libraries (this paper)
)

// System is one host running some architecture. *monolith.System (both
// baselines) and *core.System implement it.
type System interface {
	// NewApp creates an application process and returns its sockets.
	NewApp(name string) socketapi.API
	// Kern is the kernel host underneath; Stacks lists every protocol
	// stack on it, for netstat-style walks.
	Kern() *kern.Host
	Stacks() []*stack.Stack
	SetTrace(r *trace.Recorder)
	SetMetrics(hs *metrics.Scope)
	// SetRoutes installs the host's routing table; nil keeps the
	// default everything-on-link table.
	SetRoutes(rt *stack.RouteTable)
}

// Spec is an architecture at its prices. Prof prices the protocol
// implementation (for Decomposed, the libraries and the kernel delivery
// interface); SrvProf prices the OS server backing a Decomposed host and
// is ignored otherwise.
type Spec struct {
	Kind    Kind
	Prof    costs.Profile
	SrvProf costs.Profile
}

// New attaches a host of the given architecture to the segment.
func New(a Spec, s *sim.Sim, seg *simnet.Segment, name string, mac wire.MAC, ip wire.IPAddr) System {
	switch a.Kind {
	case Kernel:
		return monolith.New(s, seg, name, mac, ip, a.Prof, monolith.InKernel)
	case Server:
		return monolith.New(s, seg, name, mac, ip, a.Prof, monolith.UXServer)
	}
	return core.New(s, seg, name, mac, ip, a.Prof, a.SrvProf)
}
