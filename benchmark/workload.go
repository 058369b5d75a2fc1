package main

import (
	"time"

	"repro/internal/costs"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Architecture columns. core (Library-SHM-IPF, the paper's headline) is
// the reference column: every virt_* end-to-end metric is read there.
const (
	colInkernel = "inkernel" // Mach 2.5 In-Kernel
	colUxserver = "uxserver" // Mach 3.0+UX Server
	colCore     = "core"     // Mach 3.0+UX Library-SHM-IPF
	colNewapi   = "newapi"   // Library-NEWAPI-SHM-IPF
	colOffload  = "offload"  // Library-SHM-IPF-OFFLOAD
)

// workload is one fixed, seeded simulation. prepare draws the seeded
// inputs (part of set-up); the returned function runs one architecture
// column of one rep and must replay the identical simulation each time.
type workload struct {
	name    string
	op      string // what one op is
	columns []string
	// reps is the number of timed reps of a 10-second run, sized on the
	// 2-core reference box; -seconds scales it.
	reps int
	// exchange says the workload has a request/reply exchange to time.
	// Where it has none, virt_rtt_us_* reads the one exchange every TCP
	// workload has, the connection handshake (= virt_connect_us_*).
	exchange bool
	// pool is how many seeded variants of the reference column the
	// virtual end-to-end metrics are pooled over (0 = the run's own
	// simulation only). The driver compares medians across runs made
	// with different seeds, so a workload whose virtual results swing
	// with the seed reports them over several draws of its inputs.
	pool    int
	prepare func(seed int64, smoke bool) func(col string, tr *tracing) colRun
}

// colRun is what one column of one rep produced.
type colRun struct {
	ops    int // attempted ops, in the workload's unit
	failed int // ops that errored, came back short or corrupt, or broke a conservation law
	errs   []string

	bytes   int64         // payload bytes delivered in the measured phase
	virt    time.Duration // virtual duration of the measured phase
	rtt     []float64     // virtual µs per request/reply exchange (workloads with one)
	connect []float64     // virtual µs per Connect call
	events  uint64        // simulator events dispatched
	simWall time.Duration // host time inside Sim.Run / Group.Run
	conns   int           // TCP connections the clients opened

	// Paper Table 2 cells this column reproduces (0 = none).
	tcpLatMs, udpLatMs float64

	// Group accounting (city only).
	windows   uint64
	perShard  []uint64
	virtTotal time.Duration // virtual time the group ran, drain included

	obs *observed // traced reps only

	// Filled by the harness around the column.
	wall       time.Duration
	mallocs    uint64
	allocBytes uint64
}

func (c *colRun) fail(n int, msg string) {
	c.failed += n
	if len(c.errs) < 4 {
		c.errs = append(c.errs, msg)
	}
}

// exchanges returns the column's virt_rtt samples.
func (c *colRun) exchanges(wl *workload) []float64 {
	if wl.exchange {
		return c.rtt
	}
	return c.connect
}

// goodputKBps is ttcp's unit: 1 KB = 1024 bytes, per virtual second.
func (c *colRun) goodputKBps() float64 {
	if c.virt <= 0 {
		return 0
	}
	return float64(c.bytes) / 1024 / c.virt.Seconds()
}

// tracing is the per-column state of a traced rep: the span log and
// the column's span, parent of every span the column records. A nil
// *tracing is an untraced rep.
type tracing struct {
	log    *spanLog
	parent int
}

func (t *tracing) spans() *spanLog {
	if t == nil {
		return nil
	}
	return t.log
}

func (t *tracing) span() int {
	if t == nil {
		return 0
	}
	return t.parent
}

// observed is what the layers reported about one traced column: the
// registry snapshot and live histograms, the flight recorder, and the
// virtual-time ledger. Worlds a column runs beyond its primary one
// (rpc's UDP pass, proxy's bsd and chain modes) are not observed.
type observed struct {
	snap      metrics.Snapshot
	reg       *metrics.Registry // nil when only a snapshot is reachable (city)
	recs      []trace.Record
	ledger    [costs.NumComponents]time.Duration // World workloads only
	hasLedger bool

	// Sampled by the workload where the registry has no gauge to read
	// after the fact.
	ctFlowsPeak int

	// copyHost, when set, is the registry prefix socket-layer copy
	// accounting is read under (default: every host).
	copyHost string
}

var workloads = []workload{
	{name: "bulk", op: "KiB delivered", reps: 11,
		columns: []string{colInkernel, colUxserver, colCore, colNewapi, colOffload},
		prepare: func(seed int64, smoke bool) func(string, *tracing) colRun {
			return prepareBulk("bulk", seed, smoke, false)
		}},
	{name: "bulk-lossy", op: "KiB delivered", reps: 30, pool: 16,
		columns: []string{colCore, colOffload},
		prepare: func(seed int64, smoke bool) func(string, *tracing) colRun {
			return prepareBulk("bulk-lossy", seed, smoke, true)
		}},
	{name: "rpc", op: "round trip", reps: 22, exchange: true,
		columns: []string{colInkernel, colUxserver, colCore, colOffload},
		prepare: prepareRPC},
	{name: "manyflows", op: "round trip", reps: 5, exchange: true, pool: 4,
		columns: []string{colCore, colInkernel},
		prepare: prepareManyflows},
	{name: "vipchain", op: "connection", reps: 6, pool: 4,
		columns: []string{colCore, colInkernel},
		prepare: prepareVipchain},
	{name: "city", op: "connection", reps: 6,
		columns: []string{colCore},
		prepare: prepareCity},
	{name: "proxy", op: "KiB forwarded", reps: 16,
		columns: []string{colCore, colInkernel},
		prepare: prepareProxy},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
