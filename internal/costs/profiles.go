package costs

// This file encodes the paper's Table 4 measurements and derives the
// profiles for every system configuration in Table 2.
//
// Table 4 columns are (1-byte, max-byte) microsecond pairs; max is 1460
// bytes for TCP and 1472 for UDP (the largest unfragmented Ethernet
// payloads).

const (
	tcpMax = 1460
	udpMax = 1472
)

func lin(tcp bool, us1, us2 float64) Lin {
	if tcp {
		return LinUS(1, us1, tcpMax, us2)
	}
	return LinUS(1, us1, udpMax, us2)
}

// decLibraryIPF returns the instrumented Library (SHM-IPF) column of
// Table 4.
func decLibraryIPF() ProtoCosts {
	var c ProtoCosts
	t, u := &c.TCP, &c.UDP
	// Send path.
	t[CompEntryCopyin] = lin(true, 19, 203)
	u[CompEntryCopyin] = lin(false, 6, 7) // UDP library references user data; no copy
	t[CompTransportOutput] = lin(true, 82, 328)
	u[CompTransportOutput] = lin(false, 18, 239)
	t[CompIPOutput] = lin(true, 26, 26)
	u[CompIPOutput] = lin(false, 17, 18)
	t[CompEtherOutput] = lin(true, 98, 274)
	u[CompEtherOutput] = lin(false, 105, 280)
	// Receive path.
	t[CompDeviceIntrRead] = lin(true, 42, 43)
	u[CompDeviceIntrRead] = lin(false, 39, 40)
	t[CompNetisrPF] = lin(true, 82, 95)
	u[CompNetisrPF] = lin(false, 58, 70)
	t[CompKernelCopyout] = lin(true, 123, 534)
	u[CompKernelCopyout] = lin(false, 107, 517)
	t[CompMbufQueue] = lin(true, 22, 21)
	u[CompMbufQueue] = lin(false, 20, 20)
	t[CompIPIntr] = lin(true, 37, 35)
	u[CompIPIntr] = lin(false, 35, 33)
	t[CompTransportInput] = lin(true, 214, 445)
	u[CompTransportInput] = lin(false, 103, 318)
	t[CompWakeupUser] = lin(true, 92, 95)
	u[CompWakeupUser] = lin(false, 73, 80)
	t[CompCopyoutExit] = lin(true, 46, 261)
	u[CompCopyoutExit] = lin(false, 21, 63)
	return c
}

// decKernel returns the instrumented Kernel (Mach 2.5) column of Table 4.
func decKernel() ProtoCosts {
	var c ProtoCosts
	t, u := &c.TCP, &c.UDP
	t[CompEntryCopyin] = lin(true, 50, 153)
	u[CompEntryCopyin] = lin(false, 65, 104)
	t[CompTransportOutput] = lin(true, 65, 307)
	u[CompTransportOutput] = lin(false, 70, 273)
	t[CompIPOutput] = lin(true, 24, 20)
	u[CompIPOutput] = lin(false, 22, 25)
	t[CompEtherOutput] = lin(true, 75, 105)
	u[CompEtherOutput] = lin(false, 74, 163)
	t[CompDeviceIntrRead] = lin(true, 77, 469)
	u[CompDeviceIntrRead] = lin(false, 74, 481)
	t[CompNetisrPF] = lin(true, 79, 73)
	u[CompNetisrPF] = lin(false, 83, 84)
	// In-kernel protocols deliver straight to the socket queue: no
	// kernel-to-user packet copy and no user-level mbuf requeue.
	t[CompKernelCopyout] = Lin{}
	u[CompKernelCopyout] = Lin{}
	t[CompMbufQueue] = Lin{}
	u[CompMbufQueue] = Lin{}
	t[CompIPIntr] = lin(true, 30, 37)
	u[CompIPIntr] = lin(false, 30, 54)
	t[CompTransportInput] = lin(true, 76, 270)
	u[CompTransportInput] = lin(false, 67, 279)
	t[CompWakeupUser] = lin(true, 54, 54)
	u[CompWakeupUser] = lin(false, 70, 69)
	t[CompCopyoutExit] = lin(true, 32, 220)
	u[CompCopyoutExit] = lin(false, 27, 75)
	return c
}

// decServer returns the instrumented Server (UX) column of Table 4.
func decServer() ProtoCosts {
	var c ProtoCosts
	t, u := &c.TCP, &c.UDP
	t[CompEntryCopyin] = lin(true, 254, 579) // 4-copy RPC into the server
	u[CompEntryCopyin] = lin(false, 293, 628)
	t[CompTransportOutput] = lin(true, 224, 447) // heavyweight spl synchronization
	u[CompTransportOutput] = lin(false, 229, 398)
	t[CompIPOutput] = lin(true, 31, 25)
	u[CompIPOutput] = lin(false, 24, 27)
	t[CompEtherOutput] = lin(true, 166, 331)
	u[CompEtherOutput] = lin(false, 188, 367)
	t[CompDeviceIntrRead] = lin(true, 101, 496)
	u[CompDeviceIntrRead] = lin(false, 99, 497)
	t[CompNetisrPF] = lin(true, 53, 52)
	u[CompNetisrPF] = lin(false, 76, 61)
	t[CompKernelCopyout] = lin(true, 113, 148) // kernel memory -> server, fast reads
	u[CompKernelCopyout] = lin(false, 124, 207)
	t[CompMbufQueue] = lin(true, 79, 58)
	u[CompMbufQueue] = lin(false, 68, 64)
	t[CompIPIntr] = lin(true, 127, 95)
	u[CompIPIntr] = lin(false, 121, 91)
	t[CompTransportInput] = lin(true, 249, 365)
	u[CompTransportInput] = lin(false, 61, 273)
	t[CompWakeupUser] = lin(true, 194, 213)
	u[CompWakeupUser] = lin(false, 262, 274)
	t[CompCopyoutExit] = lin(true, 222, 1028) // IPC reply with redundant copies
	u[CompCopyoutExit] = lin(false, 208, 619)
	return c
}

// applyBoth applies f to both protocols' costs for one component.
func (c *ProtoCosts) applyBoth(comp Component, f func(Lin) Lin) {
	c.TCP[comp] = f(c.TCP[comp])
	c.UDP[comp] = f(c.UDP[comp])
}

// scaleAll multiplies every component by the given factors.
func (c *ProtoCosts) scaleAll(fixed, perByte float64) {
	for i := Component(0); i < NumComponents; i++ {
		c.TCP[i] = c.TCP[i].Scale(fixed, perByte)
		c.UDP[i] = c.UDP[i].Scale(fixed, perByte)
	}
}

// proxyRPC is the round-trip cost of a proxy call from a protocol library
// to the operating-system server (two Mach IPCs plus dispatch). It is off
// the critical path, so its precise value only affects connection setup
// latency.
var proxyRPC = Lin{FixedNS: 450_000, PerByteNS: 100}

// --- DECstation 5000/200 profiles ---

// DECLibrarySHMIPF is the paper's instrumented library configuration: the
// packet filter is integrated with the device driver and shares a memory
// ring with the application.
func DECLibrarySHMIPF() Profile {
	return Profile{
		Name:     "Mach 3.0+UX Library-SHM-IPF",
		Style:    StyleLibrary,
		Delivery: DeliverSHMIPF,
		Costs:    decLibraryIPF(),
		ProxyRPC: proxyRPC,
	}
}

// swChecksumShare is the fraction of the per-byte slope a software
// in_cksum pass contributes to a fused copy+checksum loop on the R3000
// (one load+add+carry per word against a load/store pair).
// DECLibrarySHMIPFOffload, its one user, subtracts it from the send and
// receive slopes when the checksum moves to the NIC.
const swChecksumShare = 0.45

// DECLibrarySHMIPFOffload derives the fourth receive architecture from
// the instrumented Library-SHM-IPF profile: a NIC that segments
// (TSO/GSO), coalesces (LRO), checksums, and moderates interrupts on its
// own pipeline, so per-packet software work either disappears or is
// amortized over super-segments.
//
// Software-side adjustments, both directions:
//
//   - the transport checksum moves onto the NIC, so the per-byte share
//     of the fused copy+checksum pass (CompEtherOutput on send) and of
//     transport input (CompTransportInput on receive) drops to the copy
//     alone. The checksum share is taken as 45% of the per-byte slope,
//     the fraction an in_cksum pass contributes to a combined
//     copy+checksum loop on the R3000 (one load+add+carry per word vs. a
//     load/store pair).
//
// NIC-side costs are charged on the engine pipeline (see
// internal/offload): an ASIC touches data at better than wire rate, so
// the per-byte slopes sit well under the 800 ns/B wire and never become
// the bottleneck; the fixed parts model descriptor handling.
func DECLibrarySHMIPFOffload() Profile {
	p := DECLibrarySHMIPF()
	p.Name = "Mach 3.0+UX Library-SHM-IPF-OFFLOAD"
	p.Costs.applyBoth(CompEtherOutput, func(l Lin) Lin {
		return Lin{FixedNS: l.FixedNS, PerByteNS: l.PerByteNS * (1 - swChecksumShare)}
	})
	p.Costs.applyBoth(CompTransportInput, func(l Lin) Lin {
		return Lin{FixedNS: l.FixedNS, PerByteNS: l.PerByteNS * (1 - swChecksumShare)}
	})
	p.Offload = OffloadCosts{
		Enabled:   true,
		TxSetup:   Lin{FixedNS: 8_000},                // descriptor + header template parse
		TxSegment: Lin{FixedNS: 2_000},                // per sliced frame: header patch
		Checksum:  Lin{FixedNS: 1_500, PerByteNS: 10}, // ASIC checksum, ~80x wire rate
		RxMerge:   Lin{FixedNS: 2_000},                // per frame through the LRO unit
		RxFlush:   Lin{FixedNS: 4_000},                // per super-segment delivered
	}
	return p
}

// DECLibrarySHM derives the shared-memory (non-integrated) variant: the
// device interrupt copies the whole packet into a kernel buffer first
// (the kernel profile's device read cost), after which the copy into the
// shared ring reads fast kernel memory rather than slow device memory
// (the server profile's kernel-copyout cost).
func DECLibrarySHM() Profile {
	p := DECLibrarySHMIPF()
	p.Name = "Mach 3.0+UX Library-SHM"
	p.Delivery = DeliverSHM
	k, s := decKernel(), decServer()
	p.Costs.TCP[CompDeviceIntrRead] = k.TCP[CompDeviceIntrRead]
	p.Costs.UDP[CompDeviceIntrRead] = k.UDP[CompDeviceIntrRead]
	p.Costs.TCP[CompKernelCopyout] = s.TCP[CompKernelCopyout]
	p.Costs.UDP[CompKernelCopyout] = s.UDP[CompKernelCopyout]
	return p
}

// DECLibraryIPC derives the baseline per-packet Mach IPC variant from the
// SHM profile: delivery pays IPC message construction per packet, and the
// application's receive loop pays a receive trap per message instead of
// draining a ring.
func DECLibraryIPC() Profile {
	p := DECLibrarySHM()
	p.Name = "Mach 3.0+UX Library-IPC"
	p.Delivery = DeliverIPC
	p.Costs.applyBoth(CompKernelCopyout, func(l Lin) Lin {
		return l.Plus(Lin{FixedNS: 30_000, PerByteNS: 0.05 * 1000 / 10}) // +30µs, +0.005µs/B
	})
	p.IPCRecvPerPacket = Lin{FixedNS: 25_000, PerByteNS: 5}
	return p
}

// DECKernelMach25 is the paper's instrumented in-kernel configuration.
func DECKernelMach25() Profile {
	return Profile{
		Name:     "Mach 2.5 In-Kernel",
		Style:    StyleKernel,
		Costs:    decKernel(),
		ProxyRPC: proxyRPC,
	}
}

// DECKernelUltrix derives Ultrix 4.2A from the Mach 2.5 kernel profile.
// Table 2 shows Ultrix uniformly a few percent slower in latency
// (1.52 vs 1.45 ms UDP 1B RTT) and ~7% lower in throughput; a 6% uniform
// inflation reproduces both to within the tables' precision.
func DECKernelUltrix() Profile {
	p := DECKernelMach25()
	p.Name = "Ultrix 4.2A In-Kernel"
	p.Costs.scaleAll(1.06, 1.06)
	return p
}

// DECServerUX is the paper's instrumented single-server configuration.
func DECServerUX() Profile {
	return Profile{
		Name:     "Mach 3.0+UX Server",
		Style:    StyleServer,
		Costs:    decServer(),
		ProxyRPC: proxyRPC,
	}
}

// --- i486 Gateway profiles ---
//
// The paper does not publish a Table 4 for the Gateway, so these profiles
// are synthesized from the DECstation ones plus the paper's qualitative
// statements: the 33 MHz i486 is roughly comparable to the 25 MHz R3000
// (fixed costs scaled by the observed 1B latency ratios), the 3Com 3C503
// moves data 8 bits at a time (a large per-byte device cost that caps
// throughput near the measured 457-503 KB/s), and 386BSD handles network
// interrupts and scheduling inefficiently (large fixed receive-side costs
// that make its in-kernel latency *worse* than user-level Mach 3.0
// configurations, as Table 2 shows).

// gatewayDeviceByteNS is the per-byte cost of moving packet data through
// the 3C503's 8-bit interface.
const gatewayDeviceByteNS = 1250

func gatewayize(p Profile, fixedScale float64) Profile {
	p.Costs.scaleAll(fixedScale, 1.15)
	// The slow NIC dominates per-byte costs at the device boundary in
	// both directions.
	p.Costs.applyBoth(CompEtherOutput, func(l Lin) Lin {
		return Lin{FixedNS: l.FixedNS, PerByteNS: l.PerByteNS + gatewayDeviceByteNS/2}
	})
	p.Costs.applyBoth(CompDeviceIntrRead, func(l Lin) Lin {
		return Lin{FixedNS: l.FixedNS, PerByteNS: l.PerByteNS + gatewayDeviceByteNS/2}
	})
	return p
}

// I486KernelMach25 is Mach 2.5 on the Gateway.
func I486KernelMach25() Profile {
	p := gatewayize(DECKernelMach25(), 1.40)
	p.Name = "Mach 2.5 In-Kernel (i486)"
	return p
}

// I486Kernel386BSD is 386BSD on the Gateway, including its interrupt
// handling and scheduling inefficiencies and its large-TCP-send bug.
func I486Kernel386BSD() Profile {
	p := gatewayize(DECKernelMach25(), 1.40)
	p.Name = "386BSD In-Kernel"
	// Interrupt fielding and wakeup paths are much slower; per-byte device
	// handling is worse still (programmed I/O).
	p.Costs.applyBoth(CompDeviceIntrRead, func(l Lin) Lin {
		return l.Plus(Lin{FixedNS: 250_000, PerByteNS: 650})
	})
	p.Costs.applyBoth(CompWakeupUser, func(l Lin) Lin {
		return l.Plus(Lin{FixedNS: 150_000})
	})
	p.LargeTCPSendBroken = true
	return p
}

// I486ServerUX is CMU's UX server on the Gateway.
func I486ServerUX() Profile {
	p := gatewayize(DECServerUX(), 1.35)
	p.Name = "Mach 3.0+UX Server (i486)"
	return p
}

// I486ServerBNR2SS is the BNR2SS single server on the Gateway: TCP costs
// comparable to UX, UDP notably slower (Table 2: 4.61 vs 3.96 ms at 1
// byte), and the same large-TCP-send bug as 386BSD (shared BNR2 code).
func I486ServerBNR2SS() Profile {
	p := gatewayize(DECServerUX(), 1.35)
	p.Name = "Mach 3.0+BNR2SS Server"
	for _, comp := range []Component{CompTransportInput, CompTransportOutput} {
		p.Costs.UDP[comp] = p.Costs.UDP[comp].Plus(Lin{FixedNS: 160_000})
	}
	p.Costs.scaleAll(1.0, 1.08)
	p.LargeTCPSendBroken = true
	return p
}

// I486LibraryIPC is the protocol library with per-packet IPC on the
// Gateway (the integrated packet filter was never ported there).
func I486LibraryIPC() Profile {
	p := gatewayize(DECLibraryIPC(), 1.30)
	p.Name = "Mach 3.0+UX Library-IPC (i486)"
	return p
}

// I486LibrarySHM is the shared-memory library variant on the Gateway.
func I486LibrarySHM() Profile {
	p := gatewayize(DECLibrarySHM(), 1.30)
	p.Name = "Mach 3.0+UX Library-SHM (i486)"
	return p
}

// WithNewAPI returns the profile with the paper's §4.2 modified socket
// interface: the application and protocol share buffers, eliminating the
// socket-layer copy on both sides. Only the copy components change; the
// protocol machinery is untouched.
func WithNewAPI(p Profile) Profile {
	p.Name = newAPIName(p.Name)
	// Sending: data is referenced, not copied into mbufs.
	p.Costs.applyBoth(CompEntryCopyin, func(l Lin) Lin {
		return Lin{FixedNS: l.FixedNS, PerByteNS: 0}
	})
	// Receiving: the application reads directly from the shared buffer.
	p.Costs.applyBoth(CompCopyoutExit, func(l Lin) Lin {
		return Lin{FixedNS: l.FixedNS, PerByteNS: 0}
	})
	return p
}

func newAPIName(s string) string {
	// "Mach 3.0+UX Library-SHM-IPF" -> "Mach 3.0+UX Library-NEWAPI-SHM-IPF"
	const marker = "Library-"
	for i := 0; i+len(marker) <= len(s); i++ {
		if s[i:i+len(marker)] == marker {
			return s[:i+len(marker)] + "NEWAPI-" + s[i+len(marker):]
		}
	}
	return s + " NEWAPI"
}

// CalibrateTable2 reconciles the instrumented per-layer costs of Table 4
// with the uninstrumented end-to-end measurements of Table 2.
//
// The paper notes that Table 4 comes from "an instrumented version of the
// protocols" that reflects "a small percentage error" — and indeed the
// two tables disagree by a style-dependent factor: summing Table 4's
// one-way UDP 1-byte paths (plus 102 µs of round-trip network transit)
// gives 1.27 ms for the kernel where Table 2 measures 1.45 ms (the
// instrumentation *understates* kernel costs), 1.31 ms for the library
// where Table 2 measures 1.23 ms (it *overstates* library costs, whose
// user-level instrumentation was cheaper), and matches the server
// exactly. This function applies those ratios, computed from the CPU
// (non-wire) portions of the 1-byte round trips:
//
//	kernel:  (1450-102)/(1266-102) = 1.158
//	library: (1230-102)/(1306-102) = 0.937
//	server:  1.0
//
// Table 2 and Table 3 reproductions use calibrated profiles; the Table 4
// reproduction uses the raw profiles, exactly as the paper ran an
// instrumented build for its breakdown.
func CalibrateTable2(p Profile) Profile {
	factor := 1.0
	switch p.Style {
	case StyleKernel:
		factor = 1.158
	case StyleLibrary:
		factor = 0.937
	case StyleServer:
		factor = 1.0
	}
	p.Costs.scaleAll(factor, factor)
	return p
}
