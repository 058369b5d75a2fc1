// Package bench regenerates the paper's evaluation: Table 2 (throughput
// and round-trip latency for every system configuration), Table 3 (the
// NEWAPI shared-buffer interface), Table 4 (the per-layer latency
// breakdown), the receive-buffer sweep methodology, and a set of
// ablations on the design choices.
package bench

import (
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/costs"
	"repro/internal/kern"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/socketapi"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Kind selects the implementation architecture for a configuration.
type Kind = arch.Kind

const (
	KindKernel = arch.Kernel     // protocols in the kernel (Mach 2.5, Ultrix, 386BSD)
	KindServer = arch.Server     // protocols in a user-level server (UX, BNR2SS)
	KindCore   = arch.Decomposed // the decomposed architecture (this paper)
)

// SysConfig is one system-configuration row of the paper's tables.
type SysConfig struct {
	Name     string
	Platform string
	Kind     Kind

	// Prof prices the protocol implementation (and, for KindCore, the
	// library and the kernel delivery interface).
	Prof costs.Profile
	// SrvProf prices the OS server backing a KindCore configuration.
	SrvProf costs.Profile

	// RcvBufKB is the receive buffer used for the throughput benchmark
	// (the paper's per-configuration best, found by sweeping).
	RcvBufKB int

	// NewAPI runs the workloads through the zero-copy interface (§4.2).
	NewAPI bool

	// RawCosts skips the Table 2 calibration, running with the exact
	// instrumented per-layer costs of Table 4 (used by the breakdown
	// reproduction, which models the paper's instrumented build).
	RawCosts bool

	// TCPLatNA marks TCP latency cells at >= 1024-byte messages NA: the
	// 386BSD/BNR2SS bug that prevents sending large TCP packets.
	TCPLatNA bool
}

// DECConfigs returns the DECstation 5000/200 rows of Table 2, in the
// paper's order.
func DECConfigs() []SysConfig {
	return []SysConfig{
		{Name: "Mach 2.5 In-Kernel", Platform: "DECstation 5000/200", Kind: KindKernel,
			Prof: costs.DECKernelMach25(), RcvBufKB: 24},
		{Name: "Ultrix 4.2A In-Kernel", Platform: "DECstation 5000/200", Kind: KindKernel,
			Prof: costs.DECKernelUltrix(), RcvBufKB: 16},
		{Name: "Mach 3.0+UX Server", Platform: "DECstation 5000/200", Kind: KindServer,
			Prof: costs.DECServerUX(), RcvBufKB: 24},
		{Name: "Mach 3.0+UX Library-IPC", Platform: "DECstation 5000/200", Kind: KindCore,
			Prof: costs.DECLibraryIPC(), SrvProf: costs.DECServerUX(), RcvBufKB: 24},
		{Name: "Mach 3.0+UX Library-SHM", Platform: "DECstation 5000/200", Kind: KindCore,
			Prof: costs.DECLibrarySHM(), SrvProf: costs.DECServerUX(), RcvBufKB: 120},
		{Name: "Mach 3.0+UX Library-SHM-IPF", Platform: "DECstation 5000/200", Kind: KindCore,
			Prof: costs.DECLibrarySHMIPF(), SrvProf: costs.DECServerUX(), RcvBufKB: 120},
	}
}

// I486Configs returns the Gateway 486 rows of Table 2.
func I486Configs() []SysConfig {
	return []SysConfig{
		{Name: "Mach 2.5 In-Kernel", Platform: "Gateway 486", Kind: KindKernel,
			Prof: costs.I486KernelMach25(), RcvBufKB: 8},
		{Name: "386BSD In-Kernel", Platform: "Gateway 486", Kind: KindKernel,
			Prof: costs.I486Kernel386BSD(), RcvBufKB: 8, TCPLatNA: true},
		{Name: "Mach 3.0+UX Server", Platform: "Gateway 486", Kind: KindServer,
			Prof: costs.I486ServerUX(), RcvBufKB: 16},
		{Name: "Mach 3.0+BNR2SS Server", Platform: "Gateway 486", Kind: KindServer,
			Prof: costs.I486ServerBNR2SS(), RcvBufKB: 12, TCPLatNA: true},
		{Name: "Mach 3.0+UX Library-IPC", Platform: "Gateway 486", Kind: KindCore,
			Prof: costs.I486LibraryIPC(), SrvProf: costs.I486ServerUX(), RcvBufKB: 24},
		{Name: "Mach 3.0+UX Library-SHM", Platform: "Gateway 486", Kind: KindCore,
			Prof: costs.I486LibrarySHM(), SrvProf: costs.I486ServerUX(), RcvBufKB: 24},
	}
}

// NewAPIConfigs returns the Table 3 rows: the three DECstation library
// configurations under the modified (shared-buffer) socket interface.
func NewAPIConfigs() []SysConfig {
	return []SysConfig{
		{Name: "Mach 3.0+UX Library-NEWAPI-IPC", Platform: "DECstation 5000/200", Kind: KindCore,
			Prof: costs.WithNewAPI(costs.DECLibraryIPC()), SrvProf: costs.DECServerUX(), RcvBufKB: 24, NewAPI: true},
		{Name: "Mach 3.0+UX Library-NEWAPI-SHM", Platform: "DECstation 5000/200", Kind: KindCore,
			Prof: costs.WithNewAPI(costs.DECLibrarySHM()), SrvProf: costs.DECServerUX(), RcvBufKB: 120, NewAPI: true},
		{Name: "Mach 3.0+UX Library-NEWAPI-SHM-IPF", Platform: "DECstation 5000/200", Kind: KindCore,
			Prof: costs.WithNewAPI(costs.DECLibrarySHMIPF()), SrvProf: costs.DECServerUX(), RcvBufKB: 120, NewAPI: true},
	}
}

// OffloadConfig returns the fourth architecture column: the decomposed
// system with the simulated NIC offload engine attached (TSO/GSO
// segmentation, LRO coalescing, checksum offload, adaptive interrupt
// moderation). Not a paper row — it extends the paper's three-way
// comparison with the "move per-packet work onto the NIC" step the
// follow-on literature argues for.
func OffloadConfig() SysConfig {
	return SysConfig{Name: "Mach 3.0+UX Library-SHM-IPF-OFFLOAD", Platform: "DECstation 5000/200", Kind: KindCore,
		Prof: costs.DECLibrarySHMIPFOffload(), SrvProf: costs.DECServerUX(), RcvBufKB: 120}
}

// Columns is the shared architecture registry for the comparison suites
// (psdbench -proxy, -offload, -dataplane): one representative per
// architecture — in-kernel, server, decomposed library — plus the
// offload column, in presentation order. Subcommands take their
// architecture lists from here so a new column appears everywhere at
// once.
func Columns() []SysConfig {
	decs := DECConfigs()
	return []SysConfig{decs[0], decs[2], decs[5], OffloadConfig()}
}

// HeadlineConfig is the paper's headline configuration (Library-SHM-IPF
// on the DECstation), the reference column the others compare against.
func HeadlineConfig() SysConfig { return DECConfigs()[5] }

// FindConfig returns the registered configuration with the given name and
// platform prefix, for ad-hoc runs.
func FindConfig(name string) (SysConfig, error) {
	all := append(append(DECConfigs(), I486Configs()...), NewAPIConfigs()...)
	all = append(all, OffloadConfig())
	for _, c := range all {
		if c.Name == name {
			return c, nil
		}
	}
	return SysConfig{}, fmt.Errorf("bench: unknown configuration %q", name)
}

// World is a two-host instantiation of a configuration, ready to run a
// workload.
type World struct {
	Cfg  SysConfig
	Sim  *sim.Sim
	Seg  *simnet.Segment
	IPA  wire.IPAddr
	IPB  wire.IPAddr
	NewA func(name string) socketapi.API
	NewB func(name string) socketapi.API

	// Rec is the world's flight recorder when harness tracing is
	// enabled (see EnableTrace); nil otherwise.
	Rec *trace.Recorder

	// Reg is the world's metrics registry when harness metrics are
	// enabled (see EnableMetrics) or the suite that built the world
	// reads its results from one; nil otherwise.
	Reg *metrics.Registry

	sysA, sysB   arch.System
	hostA, hostB *kern.Host
}

// Build instantiates the configuration on a fresh simulator, with the
// faults, flight recorder and registry the process defaults ask for
// (SetFaults, EnableTrace, EnableMetrics).
func (c SysConfig) Build(seed int64) *World { return c.build(seed, false) }

// The seeds the three workloads have always run on; every table and
// checked-in BENCH_*.json row depends on them.
func streamWorld(c SysConfig, reg bool) *World { return c.build(42, reg) }
func latWorld(c SysConfig, reg bool) *World    { return c.build(7, reg) }
func proxyWorld(c SysConfig) *World            { return c.build(43, true) } // copy accounting is read from the registry

// build is Build for a suite that reads its results from the registry:
// reg gives this world one whatever the process default says. The
// caller adjusts the world it gets back (fault rates, data planes, an
// observer) before the first NewA/NewB or Spawn — nothing has run yet.
func (c SysConfig) build(seed int64, reg bool) *World {
	s := sim.New(seed)
	s.Deadline = sim.Time(4 * time.Hour) // throughput runs take ~20 virtual seconds; leave margin
	seg := simnet.NewSegment(s)
	w := &World{
		Cfg: c, Sim: s, Seg: seg,
		IPA: wire.IP(10, 0, 0, 1), IPB: wire.IP(10, 0, 0, 2),
	}
	macA, macB := wire.MAC{0, 0, 0, 0, 0, 1}, wire.MAC{0, 0, 0, 0, 0, 2}
	if !c.RawCosts {
		c.Prof = costs.CalibrateTable2(c.Prof)
	}
	w.sysA = arch.New(c.Kind, s, seg, "A", macA, w.IPA, c.Prof, c.SrvProf)
	w.sysB = arch.New(c.Kind, s, seg, "B", macB, w.IPB, c.Prof, c.SrvProf)
	w.hostA, w.hostB = w.sysA.Kern(), w.sysB.Kern()
	w.NewA, w.NewB = w.sysA.NewApp, w.sysB.NewApp
	applyFaults(w)
	attachTrace(w)
	if reg || metricsCfg.enabled {
		attachMetrics(w)
	}
	return w
}

// Observe installs fn as the charge observer on both hosts: the kernel
// receive path and every observed stack's protocol layers (Table 4).
func (w *World) Observe(fn func(comp costs.Component, d time.Duration)) {
	w.hostA.Observe = fn
	w.hostB.Observe = fn
}
