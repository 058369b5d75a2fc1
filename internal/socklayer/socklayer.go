// Package socklayer is the BSD socket layer, written once over the
// stack's two types: data calls run on a *stack.Stack, the calls that
// name, open and close sessions on a *stack.Control. The paper's
// architectures differ only in where the protocol stack runs and what a
// socket call crosses to reach it, so a deployment supplies exactly that
// and nothing else:
//
//   - which stack a socket lives on,
//   - whether the caller shares that stack's address space (chains and
//     NEWAPI views alias protocol buffers) or sits across a protection
//     boundary (they degrade to copies with identical semantics), and
//   - the crossing a call makes to get there: none for the in-kernel
//     stack and for a library's own sessions, an RPC onto a server
//     worker for the UX server, a charged proxy RPC for the sessions a
//     decomposed library has left with (or returned to) the OS server.
//
// Everything else — the descriptor table, sockaddr and flag decoding,
// the short-read loop of recvmsg, chain gathering, the Libra-style
// selective-copy emulation, select — is here, once. internal/core keeps
// only what is genuinely architecture-specific (Table 1's proxy calls,
// migration, the cooperative select, orphan handling) and overrides the
// calls those touch.
package socklayer

import (
	"sort"
	"time"

	"repro/internal/kern"
	"repro/internal/sim"
	"repro/internal/socketapi"
	"repro/internal/stack"
	"repro/internal/wire"
)

// Crossing carries one socket call from the calling thread t to the
// address space the stack runs in: run executes there, on the thread it
// is handed, while t waits. marshalled approximates the argument bytes
// that cross (proxy RPCs are priced by it).
type Crossing func(t *sim.Proc, marshalled int, run func(on *sim.Proc))

// Place is what a deployment knows about where a socket's protocol
// state lives.
type Place struct {
	St *stack.Stack
	// Ctl is St with its control half, for the calls that name, open and
	// close sessions. A decomposed library's own stack has none: every
	// session on it was named elsewhere, and the library overrides those.
	Ctl *stack.Control
	// Alias: the caller shares St's address space, so SendChain,
	// RecvPeek and the NEWAPI calls hand buffers over by reference.
	// Implies no crossing.
	Alias bool
	// Cross reaches St from the application; nil when the calling
	// thread runs the stack itself.
	Cross Crossing
	// Sel is select's wait channel (BSD's selwakeup): sockets installed
	// at this place broadcast it on every status change. A place whose
	// sockets are watched some other way leaves it nil.
	Sel *sim.Cond

	wake  func()
	calls sim.Free[dataCall] // crossed data-call records not in use
}

// Entry is one open-file slot: the socket a descriptor names and where
// it lives. Fork shares entries, as BSD shares struct file.
type Entry struct {
	// Sock is nil while the deployment holds the session as a bare
	// record (a decomposed socket the OS server has not yet had to
	// create); data-moving calls then ask Table.Late for it.
	Sock *stack.Socket
	At   *Place
	// Owner is the deployment's own per-descriptor state.
	Owner any

	refs int
	zc   *[]byte // RecvZC's view buffer; nil before the first and while a call has it
}

// Table is one process's descriptor table and its socket interface. It
// implements socketapi.API, ChainAPI and ZeroCopyAPI.
type Table struct {
	Proc *kern.Process
	// Home is where Socket creates sockets and Select sleeps.
	Home *Place
	// Late, when set, is asked to produce the socket of an entry that
	// has none when a data-moving call arrives (the decomposed
	// library's implicit bind). Leaving Sock nil means "not connected".
	Late func(t *sim.Proc, e *Entry) error

	ents map[int]*Entry
	next int
}

var (
	_ socketapi.API         = (*Table)(nil)
	_ socketapi.ChainAPI    = (*Table)(nil)
	_ socketapi.ZeroCopyAPI = (*Table)(nil)
)

// NewTable returns an empty table for proc; descriptors start at 3.
func NewTable(proc *kern.Process, home *Place) *Table {
	return &Table{Proc: proc, Home: home, ents: make(map[int]*Entry), next: 3}
}

// Install assigns e the next descriptor and, when its place has a
// select channel, wires the socket's status changes into it.
func (tb *Table) Install(e *Entry) int {
	fd := tb.next
	tb.next++
	e.refs = 1
	tb.ents[fd] = e
	e.Watch()
	return fd
}

// Watch points the entry's socket at its place's select channel; call
// it again after moving an entry to another socket or place.
func (e *Entry) Watch() {
	p := e.At
	if e.Sock == nil || p.Sel == nil {
		return
	}
	if p.wake == nil {
		p.wake = p.Sel.Broadcast
	}
	e.Sock.Notify = p.wake
}

// Lookup returns fd's entry, or EBADF.
func (tb *Table) Lookup(fd int) (*Entry, error) {
	if e, ok := tb.ents[fd]; ok {
		return e, nil
	}
	return nil, socketapi.ErrBadFD
}

// Remove drops fd from the table without touching its socket.
func (tb *Table) Remove(fd int) { delete(tb.ents, fd) }

// FDs lists the open descriptors in ascending order — the order every
// fork, exit and death walk uses, so same-seed runs issue their dups,
// returns, FINs and RSTs in the same sequence (a Go map walk would not).
func (tb *Table) FDs() []int {
	fds := make([]int, 0, len(tb.ents))
	for fd := range tb.ents {
		fds = append(fds, fd)
	}
	sort.Ints(fds)
	return fds
}

// Inherit gives child the parent's descriptor numbering and, for each
// open descriptor in ascending order, the entry dup makes of the
// parent's.
func (tb *Table) Inherit(child *Table, dup func(e *Entry) (*Entry, error)) error {
	child.next = tb.next
	for _, fd := range tb.FDs() {
		ce, err := dup(tb.ents[fd])
		if err != nil {
			return err
		}
		child.ents[fd] = ce
	}
	return nil
}

// live is Lookup for calls that move data: an entry with no socket gets
// one from Late, and one still without is not connected.
func (tb *Table) live(t *sim.Proc, fd int) (*Entry, error) {
	e, err := tb.Lookup(fd)
	if err != nil || e.Sock != nil {
		return e, err
	}
	if tb.Late != nil {
		if err := tb.Late(t, e); err != nil {
			return nil, err
		}
	}
	if e.Sock == nil {
		return nil, socketapi.ErrNotConn
	}
	return e, nil
}

// Proto maps a socket type to its transport protocol.
func Proto(typ int) (uint8, error) {
	switch typ {
	case socketapi.SockStream:
		return wire.ProtoTCP, nil
	case socketapi.SockDgram:
		return wire.ProtoUDP, nil
	}
	return 0, socketapi.ErrInvalid
}

// ToStack and FromStack convert between the API's sockaddr and the
// stack's endpoint representation.
func ToStack(a socketapi.SockAddr) stack.Addr   { return stack.Addr{IP: a.Addr, Port: a.Port} }
func FromStack(a stack.Addr) socketapi.SockAddr { return socketapi.SockAddr{Addr: a.IP, Port: a.Port} }

// Fork implements socketapi.API: the child's table references the same
// open sockets and continues the parent's numbering. Each shared entry
// is dup'ed where its socket lives.
func (tb *Table) Fork(t *sim.Proc, childName string) (socketapi.API, error) {
	child := NewTable(tb.Proc.Host.NewProcess(childName), tb.Home)
	child.Late = tb.Late
	err := tb.Inherit(child, func(e *Entry) (*Entry, error) {
		if cross := e.At.Cross; cross != nil {
			cross(t, 16, func(*sim.Proc) { e.refs++ })
		} else {
			e.refs++
		}
		return e, nil
	})
	return child, err
}

// ExitProcess implements socketapi.API: surviving descriptors are
// closed gracefully, as BSD exit() does, lowest first.
func (tb *Table) ExitProcess(t *sim.Proc) {
	for _, fd := range tb.FDs() {
		tb.Close(t, fd)
	}
	tb.Proc.Exit()
}

// Close implements socketapi.API: the descriptor goes at once; the
// socket closes when its last reference does.
func (tb *Table) Close(t *sim.Proc, fd int) error {
	e, err := tb.Lookup(fd)
	if err != nil {
		return err
	}
	delete(tb.ents, fd)
	if cross := e.At.Cross; cross != nil {
		var err error
		cross(t, 16, func(on *sim.Proc) { err = e.release(on) })
		return err
	}
	return e.release(t)
}

func (e *Entry) release(on *sim.Proc) error {
	if e.refs--; e.refs > 0 {
		return nil
	}
	return e.At.Ctl.Close(on, e.Sock)
}

// Select implements socketapi.API over the home place's select channel.
// Where reaching the stack takes a crossing, the whole select — polling
// and sleeping — executes on the far side, which owns every socket.
func (tb *Table) Select(t *sim.Proc, read, write socketapi.FDSet, timeout time.Duration) (socketapi.FDSet, socketapi.FDSet, error) {
	if cross := tb.Home.Cross; cross != nil {
		var r, w socketapi.FDSet
		cross(t, 16*(len(read)+len(write)), func(on *sim.Proc) { r, w = tb.selectOn(on, read, write, timeout) })
		return r, w, nil
	}
	r, w := tb.selectOn(t, read, write, timeout)
	return r, w, nil
}

func (tb *Table) selectOn(on *sim.Proc, read, write socketapi.FDSet, timeout time.Duration) (socketapi.FDSet, socketapi.FDSet) {
	return Wait(on, tb.Home.Sel, timeout, func() (socketapi.FDSet, socketapi.FDSet) {
		r, w := socketapi.FDSet{}, socketapi.FDSet{}
		for fd := range read {
			if e, ok := tb.ents[fd]; ok && e.Sock.Readable() {
				r[fd] = true
			}
		}
		for fd := range write {
			if e, ok := tb.ents[fd]; ok && e.Sock.Writable() {
				w[fd] = true
			}
		}
		return r, w
	})
}

// Wait is select's sleep loop: poll until something is ready, sleeping
// on sel between polls. timeout 0 polls once; a negative timeout never
// expires.
func Wait(t *sim.Proc, sel *sim.Cond, timeout time.Duration, poll func() (r, w socketapi.FDSet)) (socketapi.FDSet, socketapi.FDSet) {
	deadline := t.Now().Add(timeout)
	for {
		r, w := poll()
		if len(r) > 0 || len(w) > 0 || timeout == 0 {
			return r, w
		}
		if timeout < 0 {
			sel.Wait(t)
			continue
		}
		remain := deadline.Sub(t.Now())
		if remain <= 0 {
			return r, w
		}
		sel.WaitTimeout(t, remain)
	}
}
