// Package costs defines the virtual-time cost model that stands in for
// the paper's DECstation 5000/200 and i486 Gateway hardware.
//
// The model is calibrated from Table 4 of the paper, which reports the
// average time spent in each protocol layer for the library-based
// (SHM-IPF), kernel-based (Mach 2.5), and server-based (UX) TCP and UDP
// implementations at the minimum (1 byte) and maximum (1460/1472 byte)
// unfragmented message sizes. Each component is modelled as a linear
// fixed + per-byte cost through those two measured points.
//
// Profiles for configurations the paper did not instrument (Library-IPC,
// Library-SHM, Ultrix, and the whole i486 Gateway column) are derived
// from the instrumented profiles with documented adjustments; see the
// constructor comments and DESIGN.md.
package costs

import "time"

// Lin is a linear cost: Fixed + PerByte*n nanoseconds for an n-byte
// operation.
type Lin struct {
	FixedNS   float64
	PerByteNS float64
}

// LinUS builds a Lin from the paper's two measured points (in
// microseconds) at message sizes n1 and n2 bytes.
func LinUS(n1 int, us1 float64, n2 int, us2 float64) Lin {
	// A few Table 4 entries shrink slightly with size (measurement noise,
	// e.g. ip_output 24 -> 20 µs); the slope is kept negative so the
	// encoded model reproduces the published totals exactly. Negative
	// slopes are safe here because every such component is charged per
	// packet, so n never exceeds the calibration maximum, and At clamps
	// the result at zero.
	perByte := (us2 - us1) * 1000 / float64(n2-n1)
	fixed := us1*1000 - perByte*float64(n1)
	return Lin{FixedNS: fixed, PerByteNS: perByte}
}

// FlatUS builds a size-independent cost from microseconds.
func FlatUS(us float64) Lin { return Lin{FixedNS: us * 1000} }

// At evaluates the cost for an n-byte operation, never less than zero.
func (l Lin) At(n int) time.Duration {
	v := l.FixedNS + l.PerByteNS*float64(n)
	if v < 0 {
		return 0
	}
	return time.Duration(v)
}

// Scale returns the cost with fixed and per-byte parts multiplied by the
// given factors.
func (l Lin) Scale(fixed, perByte float64) Lin {
	return Lin{FixedNS: l.FixedNS * fixed, PerByteNS: l.PerByteNS * perByte}
}

// Plus returns the sum of two linear costs.
func (l Lin) Plus(o Lin) Lin {
	return Lin{FixedNS: l.FixedNS + o.FixedNS, PerByteNS: l.PerByteNS + o.PerByteNS}
}

// Component identifies one instrumented protocol layer, matching the rows
// of the paper's Table 4.
type Component int

const (
	// Send path.
	CompEntryCopyin Component = iota
	CompTransportOutput
	CompIPOutput
	CompEtherOutput
	// Receive path.
	CompDeviceIntrRead
	CompNetisrPF
	CompKernelCopyout
	CompMbufQueue
	CompIPIntr
	CompTransportInput
	CompWakeupUser
	CompCopyoutExit
	// CompDataplane is the programmable data-plane hook stage (rule
	// chain traversal, conntrack, NAT rewrite) between the device
	// interrupt and the demultiplexing packet filter. Not part of the
	// paper's Table 4 rows, so it is absent from RecvComponents.
	CompDataplane
	// The host CPU work outside the protocol layers, also absent from
	// Table 4: a library's proxy RPC to the OS server (Profile.ProxyRPC)
	// and the per-packet IPC receive (Profile.IPCRecvPerPacket).
	CompProxyRPC
	CompIPCRecv

	NumComponents
)

var compNames = [NumComponents]string{
	"entry/copyin", "tcp,udp_output", "ip_output", "ether_output",
	"device intr/read", "netisr/packet filter", "kernel copyout",
	"mbuf/queue", "ipintr", "tcp,udp_input", "wakeup user thread",
	"copyout/exit", "dataplane", "proxy rpc", "ipc recv",
}

func (c Component) String() string {
	if c >= 0 && c < NumComponents {
		return compNames[c]
	}
	return "unknown"
}

// compSlugs are the names as metric names use them: everything but
// letters and digits made '_'.
var compSlugs = [NumComponents]string{
	"entry_copyin", "tcp_udp_output", "ip_output", "ether_output",
	"device_intr_read", "netisr_packet_filter", "kernel_copyout",
	"mbuf_queue", "ipintr", "tcp_udp_input", "wakeup_user_thread",
	"copyout_exit", "dataplane", "proxy_rpc", "ipc_recv",
}

// Slug returns the component's name in the form metric names use:
// "tcp,udp_output" is "tcp_udp_output".
func (c Component) Slug() string { return compSlugs[c] }

// SendComponents and RecvComponents list the components of each path in
// Table 4 order.
var (
	SendComponents = []Component{CompEntryCopyin, CompTransportOutput, CompIPOutput, CompEtherOutput}
	RecvComponents = []Component{CompDeviceIntrRead, CompNetisrPF, CompKernelCopyout,
		CompMbufQueue, CompIPIntr, CompTransportInput, CompWakeupUser, CompCopyoutExit}
)

// PathCosts holds the cost of every component for one protocol.
type PathCosts [NumComponents]Lin

// ProtoCosts holds per-protocol path costs.
type ProtoCosts struct {
	TCP PathCosts
	UDP PathCosts
}

// Style describes where the protocol stack executes.
type Style int

const (
	StyleLibrary Style = iota // application-linked protocol library
	StyleKernel               // in-kernel (Mach 2.5, Ultrix, 386BSD)
	StyleServer               // user-level protocol server (UX, BNR2SS)
)

func (s Style) String() string {
	switch s {
	case StyleLibrary:
		return "library"
	case StyleKernel:
		return "kernel"
	case StyleServer:
		return "server"
	}
	return "unknown"
}

// Delivery selects the user/kernel packet receive interface for
// library-based configurations (paper §4.1).
type Delivery int

const (
	// DeliverIPC sends each incoming packet to the application in a
	// separate Mach IPC message.
	DeliverIPC Delivery = iota
	// DeliverSHM copies packets into a ring shared between kernel and
	// application and signals a lightweight condition variable; multiple
	// packets are picked up per wakeup.
	DeliverSHM
	// DeliverSHMIPF integrates the packet filter with the device driver:
	// the filter examines headers in device memory and the packet body is
	// copied once, directly into the destination ring.
	DeliverSHMIPF
)

func (d Delivery) String() string {
	switch d {
	case DeliverIPC:
		return "IPC"
	case DeliverSHM:
		return "SHM"
	case DeliverSHMIPF:
		return "SHM-IPF"
	}
	return "unknown"
}

// OffloadCosts prices a simulated NIC offload engine. The charges are
// NIC-side virtual time — they serialize frames through the engine's own
// pipeline, not the host CPU, which is the point of offloading — but they
// are metered into the metrics registry so the engine's work is visible
// next to the software components. Enabled gates the whole engine: a
// zero-value OffloadCosts means the host has a plain NIC.
type OffloadCosts struct {
	Enabled bool

	// TxSetup is charged once per transmit super-segment: descriptor
	// setup and parsing the header template.
	TxSetup Lin
	// TxSegment is charged per wire frame sliced out of a super-segment:
	// header replication and field patching.
	TxSegment Lin
	// Checksum is charged per frame checksummed (transmit) or verified
	// (receive) on the NIC; the per-byte part dominates.
	Checksum Lin
	// RxMerge is charged per received frame examined by the coalescing
	// (LRO) unit, whether or not it merges.
	RxMerge Lin
	// RxFlush is charged per coalesced super-segment delivered up to the
	// host receive path.
	RxFlush Lin
}

// Profile is the complete cost model for one system configuration.
type Profile struct {
	Name  string
	Style Style
	// Delivery applies to StyleLibrary only.
	Delivery Delivery
	Costs    ProtoCosts

	// Offload, when Enabled, attaches the simulated NIC offload engine
	// (TSO/GSO segmentation, LRO coalescing, checksum offload, adaptive
	// interrupt moderation) to hosts built with this profile.
	Offload OffloadCosts

	// IPCRecvPerPacket is an extra per-packet charge in the application's
	// receive loop when packets arrive as individual IPC messages
	// (DeliverIPC): the receive trap and message header handling.
	IPCRecvPerPacket Lin

	// ProxyRPC is the cost of one proxy call to the operating-system
	// server (connection setup and other non-critical-path operations).
	ProxyRPC Lin

	// LargeTCPSendBroken models the 386BSD/BNR2SS bug the paper notes:
	// "a bug that prevents them from sending large TCP packets". Sends of
	// TCP payloads of 1024 bytes or more fail, and the benchmark tables
	// report NA.
	LargeTCPSendBroken bool
}
