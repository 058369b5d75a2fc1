// Package arch is the one construction path for a simulated host: the
// paper's three architectures behind one small interface, each built
// whole by one call that takes the host's instruments and routes along
// with its place on the network.
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

// System is one host running some architecture. *monolith.System (both
// baselines) and *core.System implement it.
type System interface {
	// NewApp creates an application process and returns its sockets.
	NewApp(name string) socketapi.API
	// Kern is the kernel host underneath; Stacks lists every protocol
	// stack on it, for netstat-style walks.
	Kern() *kern.Host
	Stacks() []*stack.Stack
}

// Spec is an architecture at its prices. Prof prices the protocol
// implementation, and its Style says where that runs: in the kernel, in a
// user-level server, or (StyleLibrary, this paper) in per-application
// libraries over the kernel delivery interface Prof.Delivery names.
// SrvProf prices the OS server backing a library host and is ignored
// otherwise.
type Spec struct {
	Prof    costs.Profile
	SrvProf costs.Profile
}

// New attaches a host of the given architecture to the segment. rec,
// hs (the host's registry scope, "host.<name>") and rt (nil: everything
// on-link) may each be nil; the kernel and every stack the host ever
// builds share them (kern.Host.StackConfig).
func New(a Spec, s *sim.Sim, seg *simnet.Segment, name string, mac wire.MAC, ip wire.IPAddr,
	rec *trace.Recorder, hs *metrics.Scope, rt *stack.RouteTable) System {
	h := kern.NewHost(s, seg, name, mac, ip, a.Prof)
	h.Trace, h.Routes = rec, rt
	h.SetMetrics(hs)
	switch a.Prof.Style {
	case costs.StyleKernel:
		return monolith.New(h, monolith.InKernel)
	case costs.StyleServer:
		return monolith.New(h, monolith.UXServer)
	}
	return core.New(h, a.SrvProf)
}
