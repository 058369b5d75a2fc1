package psd

import (
	"fmt"
	"time"
)

// CityConfig parameterizes the internet-scale sharded workload: many
// routed districts, each its own Ethernet segment behind a district
// router, joined to a backbone router over point-to-point trunks. Each
// district runs the connection-churn echo workload; a configurable
// fraction of connections crosses districts, so traffic exercises the
// trunk (and, in sharded runs, the conservative cross-shard
// synchronization) continuously.
//
// Districts are placed round-robin on the configured shards; the
// backbone router and every trunk's backbone end live on shard 0.
// Acceptance is the drained run's Network.Audit (see CityReport.Check).
type CityConfig struct {
	Seed               int64
	Districts          int
	ServersPerDistrict int
	ClientsPerDistrict int
	ConnsPerClient     int // sequential connections per client
	CrossEvery         int // every Nth connection targets another district (0 = all local)
	OrphanEvery        int // every Nth client exits without closing its last conn (0 = none)
	MsgBytes           int // payload echoed once per connection
	Arch               Arch

	// Shards selects group mode (see Config.Shards); 0 runs the same
	// topology on the classic single event loop — the baseline sharded
	// runs are measured against.
	Shards         int
	SingleThreaded bool

	// TrunkProp is the trunk propagation delay, i.e. the group
	// lookahead (0 = 1 ms). Larger values widen the synchronization
	// windows.
	TrunkProp time.Duration

	Drain time.Duration // virtual drain after the workload (0 = 75 s)

	// Trace forwards to Config.Trace, for equivalence tests that diff
	// full traces between runs.
	Trace []TraceLayer
}

// DefaultCity is a four-district scale point small enough for tests.
func DefaultCity(seed int64, shards int) CityConfig {
	return CityConfig{
		Seed:               seed,
		Districts:          4,
		ServersPerDistrict: 2,
		ClientsPerDistrict: 6,
		ConnsPerClient:     3,
		CrossEvery:         2,
		OrphanEvery:        7,
		MsgBytes:           256,
		Arch:               Decomposed(),
		Shards:             shards,
	}
}

// CityReport is the registry-derived outcome of a city run.
type CityReport struct {
	Churn ChurnLaws `json:"churn"`

	Hosts     int `json:"hosts"`
	Districts int `json:"districts"`
	Shards    int `json:"shards"`
	ConnsPlan int `json:"conns_planned"`

	// DispatchedTotal is the group's event count and DispatchedPerShard
	// its split over the shards (classic runs have one implicit shard).
	DispatchedTotal    uint64   `json:"dispatched_total"`
	DispatchedPerShard []uint64 `json:"dispatched_per_shard"`
	Windows            uint64   `json:"windows"`

	Snapshot *MetricsSnapshot `json:"-"`

	// Trace is the run's flight recorder when CityConfig.Trace was set
	// (nil otherwise); equivalence tests diff its merged records.
	Trace *Recorder `json:"-"`

	audit error
}

// Check returns the run's verdict: the first conservation law of
// Network.Audit the drained run broke, or nil.
func (r *CityReport) Check() error { return r.audit }

// districtCIDR carves districts out of 10/8: /24 per district, gateway
// at .1, hosts from .2. Supports up to 250 hosts per district and
// thousands of districts.
func districtCIDR(d int) (cidr, gw string) {
	hi, lo := 1+d/250, d%250
	return fmt.Sprintf("10.%d.%d.0/24", hi, lo), fmt.Sprintf("10.%d.%d.1", hi, lo)
}

func districtHostAddr(d, i int) string {
	hi, lo := 1+d/250, d%250
	return fmt.Sprintf("10.%d.%d.%d", hi, lo, i+2)
}

// trunkCIDR carves /30s out of 172.16/12: backbone end at .1 inside
// the /30, district end at .2.
func trunkCIDR(d int) (cidr, bbAddr, distAddr string) {
	hi, lo := 16+d/64, (d%64)*4
	return fmt.Sprintf("172.%d.%d.%d/30", hi, lo, 0),
		fmt.Sprintf("172.%d.%d.%d", hi, lo, 1),
		fmt.Sprintf("172.%d.%d.%d", hi, lo, 2)
}

// RunCity builds the districted topology, runs the workload to
// completion plus the drain period, and audits and reads the registry
// into a report. Deterministic for a given config — and
// identical for every shard count and threading mode, which the
// equivalence tests in shard_test.go verify byte for byte.
func RunCity(cfg CityConfig) (*CityReport, error) {
	n, err := buildCity(cfg)
	if err != nil {
		return nil, err
	}
	return runCity(n, cfg)
}

// cityNet carries the built topology into the workload driver.
type cityNet struct {
	net     *Network
	servers [][]*Host // [district][i]
	clients [][]*Host
}

func buildCity(cfg CityConfig) (*cityNet, error) {
	if cfg.Districts <= 0 {
		return nil, fmt.Errorf("city: Districts must be positive")
	}
	if cfg.ServersPerDistrict <= 0 || cfg.ClientsPerDistrict < 0 {
		return nil, fmt.Errorf("city: need at least one server per district")
	}
	if cfg.ServersPerDistrict+cfg.ClientsPerDistrict > 250 {
		return nil, fmt.Errorf("city: at most 250 hosts per district (/24 addressing)")
	}
	if cfg.TrunkProp <= 0 {
		cfg.TrunkProp = time.Millisecond
	}
	n := NewConfig(Config{
		Seed: cfg.Seed, Metrics: true,
		Shards: cfg.Shards, SingleThreaded: cfg.SingleThreaded,
		Trace: cfg.Trace,
	})
	c := &cityNet{net: n}

	backbone := n.NewRouterOn(0, "bb")
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	for d := 0; d < cfg.Districts; d++ {
		shard := 0
		if cfg.Shards > 0 {
			shard = d % shards
		}
		cidr, gw := districtCIDR(d)
		sub := n.NewSubnetOn(shard, fmt.Sprintf("d%d", d), cidr)
		rtr := n.NewRouterOn(shard, fmt.Sprintf("r%d", d))
		rtr.Attach(sub, gw)

		tcidr, bbAddr, distAddr := trunkCIDR(d)
		trunk := n.NewTrunk(fmt.Sprintf("t%d", d), tcidr, cfg.TrunkProp)
		trunk.Attach(backbone, bbAddr).Attach(rtr, distAddr)
		if err := backbone.AddRoute(cidr, distAddr); err != nil {
			return nil, err
		}
		if err := rtr.AddRoute("0.0.0.0/0", bbAddr); err != nil {
			return nil, err
		}

		srvs := make([]*Host, cfg.ServersPerDistrict)
		for i := range srvs {
			srvs[i] = sub.Host(fmt.Sprintf("d%ds%d", d, i), districtHostAddr(d, i), cfg.Arch)
		}
		clis := make([]*Host, cfg.ClientsPerDistrict)
		for j := range clis {
			clis[j] = sub.Host(fmt.Sprintf("d%dc%d", d, j),
				districtHostAddr(d, cfg.ServersPerDistrict+j), cfg.Arch)
		}
		c.servers = append(c.servers, srvs)
		c.clients = append(c.clients, clis)
	}
	return c, nil
}

// cityTarget picks the (district, server) a connection aims at. Cross
// connections rotate through the other districts so every trunk
// carries traffic in both directions.
func cityTarget(cfg *CityConfig, d, j, k int) (td, ts int) {
	td = d
	if cfg.CrossEvery > 0 && cfg.Districts > 1 && (k+1)%cfg.CrossEvery == 0 {
		td = (d + 1 + (j+k)%(cfg.Districts-1)) % cfg.Districts
	}
	return td, (j + k) % cfg.ServersPerDistrict
}

// runCity is the one churn traffic plan: it drives the echo workload
// over whatever topology c holds (RunCity's routed districts, or
// RunChurn's single flat one), audits the drained run, reads the
// registry and closes the world.
func runCity(c *cityNet, cfg CityConfig) (*CityReport, error) {
	defer c.net.Close()
	return driveCity(c, cfg)
}

// driveCity is runCity leaving the world open.
func driveCity(c *cityNet, cfg CityConfig) (*CityReport, error) {
	n := c.net
	if cfg.MsgBytes <= 0 {
		cfg.MsgBytes = 512
	}
	if cfg.Drain <= 0 {
		// 2MSL TIME_WAIT (60 s) and the orphan port quarantine (60 s)
		// both expire within this window.
		cfg.Drain = 75 * time.Second
	}

	// The connection plan is a pure function of the config: client j of
	// district d aims connection k at district target(d,j,k), server
	// (j+k) mod servers. Every server knows its accept count up front.
	expect := make([][]int, cfg.Districts)
	for d := range expect {
		expect[d] = make([]int, cfg.ServersPerDistrict)
	}
	for d := 0; d < cfg.Districts; d++ {
		for j := 0; j < cfg.ClientsPerDistrict; j++ {
			for k := 0; k < cfg.ConnsPerClient; k++ {
				td, ts := cityTarget(&cfg, d, j, k)
				expect[td][ts]++
			}
		}
	}

	var errs errSink
	for d := range c.servers {
		for i, h := range c.servers[d] {
			d, i, h := d, i, h
			app := h.NewApp("echo")
			h.Spawn(h.Name(), func(t *Thread) {
				ls, err := listenOn(app, t, churnPort)
				if err != nil {
					errs.fail(d, i, err)
					return
				}
				buf := make([]byte, cfg.MsgBytes)
				for served := 0; served < expect[d][i]; served++ {
					fd, _, err := app.Accept(t, ls)
					if err != nil {
						errs.fail(d, i, err)
						return
					}
					// A short read is a client that died mid-stream;
					// it still counts as served.
					if recvFull(app, t, fd, buf) == nil {
						errs.fail(d, i, sendFull(app, t, fd, buf))
					}
					app.Close(t, fd)
				}
				app.Close(t, ls)
			})
		}
	}

	msg := make([]byte, cfg.MsgBytes)
	for b := range msg {
		msg[b] = byte(b)
	}
	for d := range c.clients {
		for j, h := range c.clients[d] {
			d, j, h := d, j, h
			global := d*cfg.ClientsPerDistrict + j
			orphan := cfg.OrphanEvery > 0 && (global+1)%cfg.OrphanEvery == 0
			app := h.NewApp("churn")
			h.Spawn(h.Name(), func(t *Thread) {
				// Stagger starts within the district so the SYN burst
				// stays inside listen backlogs.
				t.Sleep(time.Duration(j) * 3 * time.Millisecond)
				buf := make([]byte, cfg.MsgBytes)
				for k := 0; k < cfg.ConnsPerClient; k++ {
					td, ts := cityTarget(&cfg, d, j, k)
					fd, err := app.Socket(t, SockStream)
					if err == nil {
						err = app.Connect(t, fd, c.servers[td][ts].Addr(churnPort))
					}
					if err == nil {
						err = sendFull(app, t, fd, msg)
					}
					if err == nil {
						err = recvFull(app, t, fd, buf)
					}
					if err != nil {
						errs.fail(d, j, fmt.Errorf("%s conn %d: %w", h.Name(), k, err))
						return
					}
					if orphan && k == cfg.ConnsPerClient-1 {
						// Die with the connection open: the host's OS
						// server must abort the orphan and quarantine
						// the port.
						app.ExitProcess(t)
						return
					}
					app.Close(t, fd)
				}
			})
		}
	}

	if err := n.runAndDrain(&errs, cfg.Drain); err != nil {
		return nil, err
	}

	snap := n.MetricsSnapshot()
	plan := cfg.Districts * cfg.ClientsPerDistrict * cfg.ConnsPerClient
	rep := &CityReport{
		Hosts:     cfg.Districts * (cfg.ServersPerDistrict + cfg.ClientsPerDistrict),
		Districts: cfg.Districts,
		Shards:    cfg.Shards,
		ConnsPlan: plan,
		Churn:     readChurnLaws(snap),
		Snapshot:  snap,
		Trace:     n.Trace(),
		audit:     n.Audit(snap, plan, true),
	}
	if g := n.Group(); g != nil {
		for _, s := range g.Shards() {
			rep.DispatchedPerShard = append(rep.DispatchedPerShard, s.Dispatched())
		}
		rep.DispatchedTotal, rep.Windows = g.Dispatched(), g.Windows()
	} else {
		rep.DispatchedTotal = n.Sim().Dispatched()
		rep.DispatchedPerShard = []uint64{rep.DispatchedTotal}
	}
	return rep, nil
}
