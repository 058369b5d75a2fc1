// Package socketapi defines the BSD socket programming interface that all
// three protocol implementations in this repository export: the
// decomposed library architecture (internal/core) and the in-kernel and
// server baselines (internal/monolith's InKernel and UXServer shapes).
//
// The paper's compatibility goal is that existing socket clients relink
// against the new implementation unmodified; here that goal translates to
// every implementation satisfying this one interface, so the benchmark
// workloads and example applications run unchanged against any of them.
// The calls themselves are implemented once, in internal/socklayer; the
// architectures differ in where that layer's sockets live.
//
// Calls take the calling thread (a *sim.Proc) explicitly: the simulation
// has no implicit "current thread".
package socketapi

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/wire"
)

// SockAddr is an Internet socket address (sockaddr_in).
type SockAddr struct {
	Addr wire.IPAddr
	Port uint16
}

func (a SockAddr) String() string { return fmt.Sprintf("%v:%d", a.Addr, a.Port) }

// IsZero reports whether the address is completely unspecified.
func (a SockAddr) IsZero() bool { return a.Addr.IsZero() && a.Port == 0 }

// Socket types.
const (
	SockStream = 1 // SOCK_STREAM
	SockDgram  = 2 // SOCK_DGRAM
)

// Send/receive flags.
const (
	MsgOOB  = 0x1 // process out-of-band data
	MsgPeek = 0x2 // peek at incoming data without consuming
)

// Shutdown directions.
const (
	ShutRd   = 0
	ShutWr   = 1
	ShutRdWr = 2
)

// Socket options.
const (
	SoRcvBuf = iota
	SoSndBuf
	SoReuseAddr
	TCPNoDelay
	SoKeepAlive
)

// Errors mirroring the errno values socket clients expect.
var (
	ErrBadFD        = errors.New("bad file descriptor (EBADF)")
	ErrInvalid      = errors.New("invalid argument (EINVAL)")
	ErrAddrInUse    = errors.New("address already in use (EADDRINUSE)")
	ErrAddrNotAvail = errors.New("cannot assign requested address (EADDRNOTAVAIL)")
	ErrConnRefused  = errors.New("connection refused (ECONNREFUSED)")
	ErrConnReset    = errors.New("connection reset by peer (ECONNRESET)")
	ErrNotConn      = errors.New("socket is not connected (ENOTCONN)")
	ErrIsConn       = errors.New("socket is already connected (EISCONN)")
	ErrPipe         = errors.New("broken pipe (EPIPE)")
	ErrTimedOut     = errors.New("connection timed out (ETIMEDOUT)")
	ErrMsgSize      = errors.New("message too long (EMSGSIZE)")
	ErrShutdown     = errors.New("cannot send after socket shutdown (ESHUTDOWN)")
	ErrHostUnreach  = errors.New("no route to host (EHOSTUNREACH)")
	ErrNotSupported = errors.New("operation not supported (EOPNOTSUPP)")
	ErrWouldBlock   = errors.New("operation would block (EWOULDBLOCK)")
	ErrNetDown      = errors.New("network is down (ENETDOWN)")
)

// FDSet is a set of file descriptors for Select, in the spirit of fd_set.
type FDSet map[int]bool

// NewFDSet builds a set from a list of descriptors.
func NewFDSet(fds ...int) FDSet {
	s := make(FDSet, len(fds))
	for _, fd := range fds {
		s[fd] = true
	}
	return s
}

// API is the socket interface every protocol implementation exports. The
// paper's Table 1 maps each of these calls onto proxy/server actions in
// the decomposed architecture; the baselines implement them directly.
//
// The BSD interface has ten data-movement calls; the distinct semantics
// are Send/SendTo/SendMsg and Recv/RecvFrom/RecvMsg, with Read/Write and
// Readv/Writev expressible in terms of them (and provided by Base).
type API interface {
	Socket(t *sim.Proc, typ int) (int, error)
	Bind(t *sim.Proc, fd int, addr SockAddr) error
	Connect(t *sim.Proc, fd int, addr SockAddr) error
	Listen(t *sim.Proc, fd int, backlog int) error
	Accept(t *sim.Proc, fd int) (int, SockAddr, error)

	Send(t *sim.Proc, fd int, b []byte, flags int) (int, error)
	SendTo(t *sim.Proc, fd int, b []byte, flags int, to SockAddr) (int, error)
	SendMsg(t *sim.Proc, fd int, iov [][]byte, flags int, to *SockAddr) (int, error)
	Recv(t *sim.Proc, fd int, b []byte, flags int) (int, error)
	RecvFrom(t *sim.Proc, fd int, b []byte, flags int) (int, SockAddr, error)
	RecvMsg(t *sim.Proc, fd int, iov [][]byte, flags int) (int, SockAddr, error)

	Close(t *sim.Proc, fd int) error
	Shutdown(t *sim.Proc, fd int, how int) error
	SetSockOpt(t *sim.Proc, fd int, opt int, value int) error
	GetSockOpt(t *sim.Proc, fd int, opt int) (int, error)
	GetSockName(t *sim.Proc, fd int) (SockAddr, error)
	GetPeerName(t *sim.Proc, fd int) (SockAddr, error)

	// Select blocks until one of the read/write sets is ready or the
	// timeout expires (timeout < 0 blocks forever). It returns the ready
	// subsets.
	Select(t *sim.Proc, read, write FDSet, timeout time.Duration) (FDSet, FDSet, error)

	// Fork returns a copy of the API bound to a new process whose
	// descriptor table references the same open sessions, with BSD fork
	// semantics. Implementations that decompose protocol state must
	// return sessions to the operating system first (paper Table 1).
	Fork(t *sim.Proc, childName string) (API, error)

	// ExitProcess terminates the calling process without closing its
	// descriptors cleanly (the paper's "unexpected shutdown" case).
	ExitProcess(t *sim.Proc)
}

// ZeroCopyAPI is the paper's §4.2 modified interface (NEWAPI): send and
// receive share buffers between the application and the protocol,
// eliminating the socket-layer copy. Every architecture implements it,
// but only the library shares buffers; the kernel and server baselines,
// which cannot without crossing protection boundaries, copy instead.
type ZeroCopyAPI interface {
	// SendZC transfers b without copying it into protocol buffers; the
	// caller must not reuse b until the call returns.
	SendZC(t *sim.Proc, fd int, b []byte, flags int) (int, error)
	// RecvZC returns a view of received data owned by the protocol,
	// valid until the next RecvZC on the same descriptor. max <= 0 means
	// everything queued (at most SO_RCVBUF bytes), as for RecvPeek, and
	// a positive max bounds the result everywhere, whether it is a view
	// of shared buffers or a copy.
	RecvZC(t *sim.Proc, fd int, max int, flags int) ([]byte, SockAddr, error)
}

// Range names one byte range of a received view that RecvPeek must
// materialize into a private copy (Libra-style selective copying: the
// application declares exactly which bytes it needs as flat memory —
// typically headers — and everything else stays aliased).
type Range struct {
	Off int // offset within the returned view
	Len int // bytes to materialize
}

// RecvView is the result of a RecvPeek: a reference-counted view of
// the socket's receive queue (aliased where the caller shares the
// stack's address space, a copy in pooled mbuf storage across a
// boundary) plus the selectively materialized ranges it asked for.
//
// The bytes Chain views are not consumed until RecvRelease. The caller
// may mutate the view through Chain.WriteAt — copy-on-write keeps the
// receive queue and in-flight segments intact — and may SendChain it
// onward. The caller owns Chain and must Release it (or surrender it
// to SendChain), which hands its storage back to the pools.
type RecvView struct {
	Chain  *mbuf.Chain // the view, up to max bytes; empty at EOF
	Copied [][]byte    // one private copy per requested Range, clamped to the view
	From   SockAddr    // datagram source (UDP only)
}

// MaterializeRanges builds the private flat copies a RecvPeek caller
// asked for, clamping each range to the view. Implementations that
// cannot alias protocol buffers use it to emulate selective copying
// with identical semantics.
func MaterializeRanges(view *mbuf.Chain, ranges []Range) [][]byte {
	if len(ranges) == 0 {
		return nil
	}
	out := make([][]byte, len(ranges))
	for i, r := range ranges {
		off, ln := r.Off, r.Len
		if off < 0 {
			off = 0
		}
		if off > view.Len() {
			off = view.Len()
		}
		if ln < 0 || off+ln > view.Len() {
			ln = view.Len() - off
		}
		b := make([]byte, ln)
		view.ReadAt(b, off)
		out[i] = b
	}
	return out
}

// ChainAPI is the scatter-gather/sendfile-style interface layered over
// the refcounted mbuf chains: send surrenders a chain instead of
// copying a flat buffer, receive returns an aliased view with selective
// materialization, and Splice moves bytes socket-to-socket without the
// application ever touching (or, in the decomposed architecture, even
// mapping) the payload.
//
// All three architectures implement it. Where a protection boundary
// makes true aliasing impossible (the in-kernel and server baselines'
// send/receive paths), the implementation degrades to a copy with
// identical semantics — exactly the contrast the proxy benchmark
// measures.
type ChainAPI interface {
	// SendChain queues the chain's bytes on the connection, surrendering
	// ownership of c (the callee releases it, possibly after
	// retransmission). Blocks until every byte is queued. c may be nil
	// or empty.
	SendChain(t *sim.Proc, fd int, c *mbuf.Chain, flags int) (int, error)

	// RecvPeek blocks until data is available (or EOF/error) and returns
	// a view of up to max bytes without consuming them, materializing
	// the requested ranges. Call RecvRelease to consume.
	RecvPeek(t *sim.Proc, fd int, max int, ranges []Range) (RecvView, error)

	// RecvRelease consumes n bytes from the receive queue (for UDP, the
	// front datagram regardless of n), advancing the flow-control
	// window. Views previously returned by RecvPeek remain valid: they
	// hold their own storage references.
	RecvRelease(t *sim.Proc, fd int, n int) error

	// Splice moves up to n payload bytes from srcFD's receive queue to
	// dstFD's send queue without copying, blocking until n bytes have
	// moved or srcFD reaches EOF. Both descriptors must be connected
	// TCP streams. Returns the number of bytes moved.
	Splice(t *sim.Proc, dstFD, srcFD int, n int) (int, error)
}
