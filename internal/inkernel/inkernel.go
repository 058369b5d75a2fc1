// Package inkernel is the paper's in-kernel baseline (Mach 2.5, Ultrix
// 4.2A, 386BSD): the protocol stack executes inside the simulated
// kernel. Application socket calls trap into the kernel and run the
// socket layer there, on the calling thread; received packets are
// processed at software-interrupt level, which preempts application
// work on the uniprocessor.
//
// There is no packet filter demultiplexing to user space and no
// kernel-to-user packet copy: the stack reads the kernel buffer directly
// and data is copied exactly once, at the copyout in recv (the zero
// "kernel copyout" and "mbuf/queue" rows of Table 4's kernel column).
package inkernel

import (
	"repro/internal/costs"
	"repro/internal/monolith"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// System is one host running an in-kernel protocol stack.
type System = monolith.System

// New attaches a host running prof's in-kernel stack to the segment.
func New(s *sim.Sim, seg *simnet.Segment, name string, mac wire.MAC, ip wire.IPAddr, prof costs.Profile) *System {
	return monolith.New(s, seg, name, mac, ip, prof, monolith.Shape{
		Owner: "kernel", StackName: "kstack",
		// The software-interrupt thread: drains the device queue and runs
		// protocol input at interrupt priority, preempting user work.
		Input: "netisr", IntrInput: true,
	})
}
