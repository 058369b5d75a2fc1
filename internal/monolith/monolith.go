// Package monolith is the deployment the paper's two baselines share:
// one protocol stack per host, owned by one address space, behind one
// socket layer. What differs between them is the Shape: InKernel or
// UXServer.
package monolith

import (
	"repro/internal/kern"
	"repro/internal/sim"
	"repro/internal/socketapi"
	"repro/internal/socklayer"
	"repro/internal/stack"
)

// Shape is the three ways the baselines differ.
type Shape struct {
	// Owner names the process that owns the stack ("kernel", "uxserver");
	// StackName suffixes the stack's registry and netstat name.
	Owner, StackName string
	// Input names the network input thread. IntrInput runs its protocol
	// processing at interrupt priority, preempting application work (the
	// kernel's software interrupt); otherwise it is an ordinary thread
	// competing at task priority (a server).
	Input     string
	IntrInput bool
	// Workers, when nonzero, puts the stack across an RPC boundary:
	// every socket call executes on one of that many server threads
	// (blocking calls occupy one each) of the port named RPC. Zero means
	// a socket call is a trap and runs on the calling thread.
	RPC     string
	Workers int
}

// InKernel is the paper's in-kernel baseline (Mach 2.5, Ultrix 4.2A,
// 386BSD): the protocol stack executes inside the simulated kernel.
// Application socket calls trap into the kernel and run the socket layer
// there, on the calling thread; received packets are processed at
// software-interrupt level, which preempts application work on the
// uniprocessor.
//
// There is no packet filter demultiplexing to user space and no
// kernel-to-user packet copy: the stack reads the kernel buffer directly
// and data is copied exactly once, at the copyout in recv (the zero
// "kernel copyout" and "mbuf/queue" rows of Table 4's kernel column).
var InKernel = Shape{
	Owner: "kernel", StackName: "kstack",
	// The software-interrupt thread: drains the device queue and runs
	// protocol input at interrupt priority, preempting user work.
	Input: "netisr", IntrInput: true,
}

// UXServer is the paper's server-based baseline (CMU's UX single server,
// BNR2SS): the entire protocol stack runs in one user-level server
// process, and every application socket call is a synchronous RPC into
// it.
//
// The performance character the paper measures — four data copies per
// send/receive RPC and heavyweight priority-level synchronization inside
// the server — is priced by the server column of the cost model
// (costs.DECServerUX and derivatives) as the stack runs; the shape
// contributes the structure: one more address space on the path, a
// server-side network input thread at task (not interrupt) priority, and
// a bounded worker pool serving application RPCs.
var UXServer = Shape{
	Owner: "uxserver", StackName: "uxstack",
	// Network input is an ordinary thread competing with the RPC
	// workers: the server is a process, which is part of why its
	// latency is worse.
	Input: "netin",
	// Blocking calls (accept, recv) occupy one worker each.
	RPC: "ux", Workers: 32,
}

// System is one host running a monolithic protocol stack.
type System struct {
	host    *kern.Host
	st      *stack.Control
	place   socklayer.Place
	selCond sim.Cond // BSD selwakeup: any socket status change wakes all selectors
}

// New runs one protocol stack, priced by h.Prof, on h in the given shape.
func New(h *kern.Host, shape Shape) *System {
	sys := &System{host: h}
	owner := h.NewProcess(shape.Owner) // the address space that owns the stack

	// All traffic lands on the stack's one endpoint.
	ep := h.NewEndpoint(0)
	if _, err := ep.InstallProgram(kern.CatchAllProgram(), 0); err != nil {
		panic(err)
	}

	var input *sim.Proc
	var intr func(*sim.Proc) bool
	if shape.IntrInput {
		intr = func(t *sim.Proc) bool { return t == input }
	}
	sys.st = stack.NewControl(h.StackConfig(shape.StackName, &h.Prof, intr), stack.NewLocalPorts())
	input = ep.Drain(owner, owner.Name+"."+shape.Input, sys.st.Input)
	sys.st.StartTimers(owner.GoDaemon)

	sys.place = socklayer.Place{St: sys.st.Stack, Ctl: sys.st, Sel: &sys.selCond}
	if shape.Workers > 0 {
		svc := kern.NewService(owner, h.Name+"."+shape.RPC, shape.Workers)
		sys.place.Cross = func(t *sim.Proc, _ int, run func(on *sim.Proc)) { svc.Call(t, run) }
	}
	return sys
}

// NewApp creates an application process on the host and returns its
// socket interface.
func (sys *System) NewApp(name string) socketapi.API {
	return socklayer.NewTable(sys.host.NewProcess(name), &sys.place)
}

// Kern returns the kernel host the system runs on.
func (sys *System) Kern() *kern.Host { return sys.host }

// Stacks returns the system's one stack.
func (sys *System) Stacks() []*stack.Stack { return []*stack.Stack{sys.st.Stack} }
