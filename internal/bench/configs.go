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
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/socketapi"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/psd"
)

// SysConfig is one system-configuration row of the paper's tables.
type SysConfig struct {
	Name     string
	Platform string

	// Spec is the row's architecture at the per-layer prices of the
	// paper's instrumented build (Table 4); Arch calibrates it.
	Spec arch.Spec

	// RcvBufKB is the receive buffer used for the throughput benchmark
	// (the paper's per-configuration best, found by sweeping).
	RcvBufKB int

	// NewAPI runs the workloads through the zero-copy interface (§4.2).
	NewAPI bool

	// RawCosts skips the Table 2 calibration, running with the exact
	// instrumented per-layer costs of Table 4 (used by the breakdown
	// reproduction, which models the paper's instrumented build).
	RawCosts bool
}

// Arch is the architecture the row's hosts run: Spec with its protocol
// profile calibrated to Table 2, or as instrumented when RawCosts is set.
func (c SysConfig) Arch() psd.Arch {
	a := c.Spec
	if !c.RawCosts {
		a.Prof = costs.CalibrateTable2(a.Prof)
	}
	return a
}

func mono(p costs.Profile) arch.Spec         { return arch.Spec{Prof: p} }
func library(p, srv costs.Profile) arch.Spec { return arch.Spec{Prof: p, SrvProf: srv} }

// DECConfigs returns the DECstation 5000/200 rows of Table 2, in the
// paper's order.
func DECConfigs() []SysConfig {
	const dec = "DECstation 5000/200"
	return []SysConfig{
		{Name: "Mach 2.5 In-Kernel", Platform: dec, Spec: mono(costs.DECKernelMach25()), RcvBufKB: 24},
		{Name: "Ultrix 4.2A In-Kernel", Platform: dec, Spec: mono(costs.DECKernelUltrix()), RcvBufKB: 16},
		{Name: "Mach 3.0+UX Server", Platform: dec, Spec: mono(costs.DECServerUX()), RcvBufKB: 24},
		{Name: "Mach 3.0+UX Library-IPC", Platform: dec,
			Spec: library(costs.DECLibraryIPC(), costs.DECServerUX()), RcvBufKB: 24},
		{Name: "Mach 3.0+UX Library-SHM", Platform: dec,
			Spec: library(costs.DECLibrarySHM(), costs.DECServerUX()), RcvBufKB: 120},
		{Name: "Mach 3.0+UX Library-SHM-IPF", Platform: dec,
			Spec: library(costs.DECLibrarySHMIPF(), costs.DECServerUX()), RcvBufKB: 120},
	}
}

// I486Configs returns the Gateway 486 rows of Table 2.
func I486Configs() []SysConfig {
	const i486 = "Gateway 486"
	return []SysConfig{
		{Name: "Mach 2.5 In-Kernel", Platform: i486, Spec: mono(costs.I486KernelMach25()), RcvBufKB: 8},
		{Name: "386BSD In-Kernel", Platform: i486, Spec: mono(costs.I486Kernel386BSD()), RcvBufKB: 8},
		{Name: "Mach 3.0+UX Server", Platform: i486, Spec: mono(costs.I486ServerUX()), RcvBufKB: 16},
		{Name: "Mach 3.0+BNR2SS Server", Platform: i486, Spec: mono(costs.I486ServerBNR2SS()), RcvBufKB: 12},
		{Name: "Mach 3.0+UX Library-IPC", Platform: i486,
			Spec: library(costs.I486LibraryIPC(), costs.I486ServerUX()), RcvBufKB: 24},
		{Name: "Mach 3.0+UX Library-SHM", Platform: i486,
			Spec: library(costs.I486LibrarySHM(), costs.I486ServerUX()), RcvBufKB: 24},
	}
}

// NewAPIConfigs returns the Table 3 rows: the three DECstation library
// configurations under the modified (shared-buffer) socket interface.
func NewAPIConfigs() []SysConfig {
	const dec = "DECstation 5000/200"
	return []SysConfig{
		{Name: "Mach 3.0+UX Library-NEWAPI-IPC", Platform: dec,
			Spec: library(costs.WithNewAPI(costs.DECLibraryIPC()), costs.DECServerUX()), RcvBufKB: 24, NewAPI: true},
		{Name: "Mach 3.0+UX Library-NEWAPI-SHM", Platform: dec,
			Spec: library(costs.WithNewAPI(costs.DECLibrarySHM()), costs.DECServerUX()), RcvBufKB: 120, NewAPI: true},
		{Name: "Mach 3.0+UX Library-NEWAPI-SHM-IPF", Platform: dec,
			Spec: library(costs.WithNewAPI(costs.DECLibrarySHMIPF()), costs.DECServerUX()), RcvBufKB: 120, NewAPI: true},
	}
}

// OffloadConfig returns the fourth architecture column: the decomposed
// system with the simulated NIC offload engine attached (TSO/GSO
// segmentation, LRO coalescing, checksum offload, adaptive interrupt
// moderation). Not a paper row — it extends the paper's three-way
// comparison with the "move per-packet work onto the NIC" step the
// follow-on literature argues for.
func OffloadConfig() SysConfig {
	return SysConfig{Name: "Mach 3.0+UX Library-SHM-IPF-OFFLOAD", Platform: "DECstation 5000/200",
		Spec: library(costs.DECLibrarySHMIPFOffload(), costs.DECServerUX()), RcvBufKB: 120}
}

// AllConfigs lists every registered row: Table 2 on both platforms,
// Table 3, then the offload column.
func AllConfigs() []SysConfig {
	all := append(append(DECConfigs(), I486Configs()...), NewAPIConfigs()...)
	return append(all, OffloadConfig())
}

// Columns is the shared architecture registry for the comparison suites
// (psdbench proxy, offload, dataplane): one representative per
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

// FindConfig returns the first registered configuration with the given
// name, for ad-hoc runs.
func FindConfig(name string) (SysConfig, error) {
	for _, c := range AllConfigs() {
		if c.Name == name {
			return c, nil
		}
	}
	return SysConfig{}, fmt.Errorf("bench: unknown configuration %q", name)
}

// World is a two-host instantiation of a configuration, ready to run a
// workload: hosts A (10.0.0.1) and B (10.0.0.2) on the default segment
// of a psd.Network.
type World struct {
	Cfg  SysConfig
	Sim  *sim.Sim
	Seg  *simnet.Segment
	IPA  wire.IPAddr
	IPB  wire.IPAddr
	NewA func(name string) socketapi.API
	NewB func(name string) socketapi.API

	// Rec is the world's flight recorder when it was built traced; nil
	// otherwise.
	Rec *trace.Recorder

	// Reg is the world's metrics registry when it was built with one;
	// nil otherwise.
	Reg *metrics.Registry

	net  *psd.Network
	a, b *psd.Host
	env  *Env // what the world was built in; nil when clean
}

// audit is what a runner reports as its Err: the run's own error, or else
// the first undrained conservation law the finished run broke (see
// psd.Network.Audit).
func (w *World) audit(err error) error {
	if err != nil {
		return err
	}
	return w.net.Audit(nil, 0, false)
}

// Build instantiates the configuration on a fresh network at seed, with
// the flight recorder and registry that EnableTrace and EnableMetrics
// ask for.
func (c SysConfig) Build(seed int64) *World {
	pc := buildDefaults
	pc.Seed = seed
	return c.build(pc, nil)
}

// The seeds the three workloads have always run on; every table and
// checked-in BENCH_*.json row depends on them.
func streamWorld(env *Env, c SysConfig, reg bool) *World { return c.build(env.config(42, reg), env) }
func latWorld(env *Env, c SysConfig, reg bool) *World    { return c.build(env.config(7, reg), env) }
func proxyWorld(env *Env, c SysConfig) *World            { return c.build(env.config(43, true), env) } // copy accounting is read from the registry

// build makes the world of pc in env: the network, hosts A and B, and
// env's faults. The caller adjusts the world it gets back (fault rates,
// data planes, an observer) before the first NewA/NewB or Spawn —
// nothing has run yet.
func (c SysConfig) build(pc psd.Config, env *Env) *World {
	pc.Deadline = 4 * time.Hour // throughput runs take ~20 virtual seconds; leave margin
	n := psd.NewConfig(pc)
	spec := c.Arch()
	a, b := n.Host("A", "10.0.0.1", spec), n.Host("B", "10.0.0.2", spec)
	if env != nil && env.plan != nil {
		n.Faults().Schedule(env.plan)
		env.injs = append(env.injs, n.Faults())
	}
	return &World{
		Cfg: c, Sim: n.Sim(), Seg: n.Segment(), Rec: n.Trace(), Reg: n.Metrics(),
		IPA: a.Addr(0).Addr, IPB: b.Addr(0).Addr, NewA: a.NewApp, NewB: b.NewApp,
		net: n, a: a, b: b, env: env,
	}
}

// Observe installs fn as the tap on both hosts' CPU ledgers: it sees
// every charge as the ledger records it.
func (w *World) Observe(fn func(comp costs.Component, d time.Duration)) {
	w.a.Kern().Observe = fn
	w.b.Kern().Observe = fn
}

// ledger is hosts A and B's CPU ledgers, summed per component.
func (w *World) ledger() (l [costs.NumComponents]time.Duration) {
	for c := range l {
		l[c] = time.Duration(w.a.Kern().Ledger[c].Value() + w.b.Kern().Ledger[c].Value())
	}
	return l
}
