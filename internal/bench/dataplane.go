package bench

import (
	"fmt"

	"repro/internal/filter"
	"repro/internal/wire"
	"repro/psd"
)

// Dataplane suite: what does programmability cost? Two sweeps and a
// churn gate:
//
//	ttcp-chain:     bulk TCP throughput with a data plane installed on
//	                both hosts and a rule chain of N never-matching
//	                filter programs — every frame pays the full
//	                netfilter-style traversal at its receiver.
//	protolat-chain: TCP round-trip latency under the same chains, where
//	                the per-frame charge is most visible.
//	vip-churn:      the L4 load-balancer conservation gate (psd.RunLB)
//	                on every architecture flavor: kill a backend mid-
//	                run, add a fresh one, and demand zero leaked flows
//	                and SNAT ports.
//
// The chain lengths reproduce the classic packet-filter scaling
// question: a hook with an empty chain prices the plane itself; 128
// rules price a badly-ordered production rule set.

// DataplaneChainLengths are the rule-chain sizes the sweeps measure.
var DataplaneChainLengths = []int{0, 8, 32, 128}

// dataplaneTTCPBytes sizes each throughput cell; 1 MB keeps the
// 16-cell sweep quick while steady state still dominates.
const dataplaneTTCPBytes = 1 << 20

// dataplaneLatRounds is the round-trip count per latency cell.
const dataplaneLatRounds = 100

// DataplaneCell is one measurement row of BENCH_dataplane.json.
type DataplaneCell struct {
	Config   string `json:"config"`
	Workload string `json:"workload"`

	// Chain-sweep cells.
	ChainRules  int     `json:"chain_rules"`
	ChainInstrs int     `json:"chain_instrs,omitempty"`
	KBps        float64 `json:"kbps,omitempty"`
	LatencyMs   float64 `json:"latency_ms,omitempty"`

	// vip-churn cells: the RunLB conservation outcome.
	Conns     int64 `json:"conns,omitempty"`
	Served    int64 `json:"served,omitempty"`
	Failed    int64 `json:"failed,omitempty"`
	Rehomed   int64 `json:"rehomed,omitempty"`
	Resets    int64 `json:"resets,omitempty"`
	FlowsLeft int64 `json:"flows_left,omitempty"`
	SNATLeft  int64 `json:"snat_left,omitempty"`
}

// attachPlanes gives both hosts of a freshly built world their data
// plane with a rule chain of n never-matching programs (each plane arms
// its GC timer, so before anything is spawned), returning the chain's
// instruction count. The rules match distinct unused TEST-NET remotes,
// so every frame walks the entire chain — the traversal upper bound the
// cost model charges.
func attachPlanes(w *World, n int) int {
	instrs := 0
	for _, h := range []*psd.Host{w.a, w.b} {
		p := h.Dataplane()
		for i := 0; i < n; i++ {
			prog := filter.Compile(filter.MatchSpec{
				RemoteIP: wire.IP(192, 0, 2, byte(1+i%250)),
			})
			if _, err := p.Chain.Append(prog, filter.VerdictDrop); err != nil {
				panic(err) // Compile output always validates
			}
		}
		instrs = p.Chain.Instructions()
	}
	return instrs
}

// RunDataplaneTTCP measures one throughput cell: bulk TCP transfer with
// an n-rule chain on both hosts of a world built in env.
func RunDataplaneTTCP(env *Env, cfg SysConfig, n int) (DataplaneCell, error) {
	cell := DataplaneCell{Config: cfg.Name, Workload: "ttcp-chain", ChainRules: n}
	w := streamWorld(env, cfg, false)
	cell.ChainInstrs = attachPlanes(w, n)
	res := runStreamOn(w, "ttcp", cfg.RcvBufKB, dataplaneTTCPBytes, 0)
	if res.Err != nil {
		return cell, res.Err
	}
	cell.KBps = res.KBps()
	return cell, nil
}

// RunDataplaneLat measures one latency cell: 64-byte TCP round trips
// under an n-rule chain on both hosts of a world built in env.
func RunDataplaneLat(env *Env, cfg SysConfig, n int) (DataplaneCell, error) {
	cell := DataplaneCell{Config: cfg.Name, Workload: "protolat-chain", ChainRules: n}
	w := latWorld(env, cfg, false)
	cell.ChainInstrs = attachPlanes(w, n)
	res := runProtolatOn(w, true, 64, dataplaneLatRounds, nil)
	if res.Err != nil {
		return cell, res.Err
	}
	cell.LatencyMs = res.Ms()
	return cell, nil
}

// runDataplaneChurn runs the L4 load-balancer churn workload on one
// architecture flavor and gates on its conservation laws.
func runDataplaneChurn(f psd.ArchFlavor) (DataplaneCell, error) {
	cell := DataplaneCell{Config: f.Name, Workload: "vip-churn"}
	cfg := psd.DefaultLB(7)
	cfg.Arch = f.New()
	rep, err := psd.RunLB(cfg)
	if err != nil {
		return cell, err
	}
	if err := rep.Check(); err != nil {
		return cell, err
	}
	cell.Conns = int64(rep.ConnsPlan)
	cell.Served = rep.Served
	cell.Failed = rep.Failed
	cell.Rehomed = rep.Rehomed
	cell.Resets = rep.Resets
	cell.FlowsLeft = rep.FlowsLeft
	cell.SNATLeft = rep.SNATLeft
	return cell, nil
}

// RunDataplaneSuite measures every cell: throughput and latency at each
// chain length on each Columns() configuration, then the VIP churn gate
// on each architecture flavor. The chain cells are built in env; the
// churn gate runs on its own psd network. Deterministic: two calls
// return identical rows.
func RunDataplaneSuite(env *Env) ([]DataplaneCell, error) {
	var out []DataplaneCell
	for _, cfg := range Columns() {
		for _, n := range DataplaneChainLengths {
			cell, err := RunDataplaneTTCP(env, cfg, n)
			if err != nil {
				return nil, fmt.Errorf("dataplane: %s ttcp chain=%d: %w", cfg.Name, n, err)
			}
			out = append(out, cell)
		}
	}
	for _, cfg := range Columns() {
		for _, n := range DataplaneChainLengths {
			cell, err := RunDataplaneLat(env, cfg, n)
			if err != nil {
				return nil, fmt.Errorf("dataplane: %s protolat chain=%d: %w", cfg.Name, n, err)
			}
			out = append(out, cell)
		}
	}
	for _, f := range psd.ArchFlavors() {
		cell, err := runDataplaneChurn(f)
		if err != nil {
			return nil, fmt.Errorf("dataplane: %s vip-churn: %w", f.Name, err)
		}
		out = append(out, cell)
	}
	return out, nil
}
