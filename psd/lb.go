package psd

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// LBConfig parameterizes the load-balancer churn workload: clients
// connecting through a VIP while the backend pool changes under them.
// Mid-run one backend is killed (its embryonic flows re-home, its
// established flows are reset) and a fresh backend joins; the
// conservation gate (LBReport.Check) then demands that every client
// connection was served by exactly one backend or visibly failed, and
// that no flow or SNAT port leaked through the churn.
type LBConfig struct {
	Seed int64
	Arch Arch

	KillAt time.Duration // virtual time to kill backend 0 (0 = never)
	AddAt  time.Duration // virtual time to add a fresh backend (0 = never)
}

// The workload's fixed shape: 48 connections across 4 clients and a
// 3-backend pool.
const (
	lbBackends       = 3                     // initial pool size
	lbClients        = 4                     // client hosts
	lbConnsPerClient = 12                    // sequential connections per client
	lbMsgBytes       = 256                   // request/response payload per connection
	lbConnGap        = 50 * time.Millisecond // client pause between connections (paces the run)
	lbDrain          = 90 * time.Second      // idle time for conntrack GC to empty the table
)

// DefaultLB is the churn point the acceptance gate runs at: a kill and
// a re-add landing mid-run.
func DefaultLB(seed int64) LBConfig {
	return LBConfig{
		Seed:   seed,
		Arch:   Decomposed(),
		KillAt: 150 * time.Millisecond,
		AddAt:  300 * time.Millisecond,
	}
}

// LBReport is the outcome of one load-balancer churn run.
type LBReport struct {
	ConnsPlan int   `json:"conns_planned"`
	Served    int64 `json:"served"` // full request/response exchanges
	Failed    int64 `json:"failed"` // connections reset or refused under churn

	// BackendServed counts client-observed serves by backend pool index
	// (the response names its server).
	BackendServed []int64 `json:"backend_served"`

	// Plane accounting on the load-balancer host.
	LBConns   int64 `json:"lb_conns"`
	Rehomed   int64 `json:"rehomed"`
	Resets    int64 `json:"resets"`
	Refused   int64 `json:"refused"`
	CTCreated int64 `json:"ct_created"`
	CTExpired int64 `json:"ct_expired"`

	// Residue after drain: the ct.flows and lb.snat_in_use gauges,
	// which the audit's residue law holds at zero.
	FlowsLeft int64 `json:"flows_left"`
	SNATLeft  int64 `json:"snat_left"`

	Snapshot *MetricsSnapshot `json:"-"`

	audit error
}

// Check verifies the client side of the plan — every planned connection
// either completed against exactly one backend or failed visibly, and at
// least one backend served — and then returns the drained run's
// Network.Audit verdict.
func (r *LBReport) Check() error {
	if r.Served+r.Failed != int64(r.ConnsPlan) {
		return fmt.Errorf("lb: served %d + failed %d != planned %d", r.Served, r.Failed, r.ConnsPlan)
	}
	var byBackend int64
	for _, c := range r.BackendServed {
		byBackend += c
	}
	if byBackend != r.Served {
		return fmt.Errorf("lb: per-backend serves sum to %d, served %d (a connection must land on exactly one backend)",
			byBackend, r.Served)
	}
	if r.Served == 0 {
		return fmt.Errorf("lb: no connection served")
	}
	return r.audit
}

const (
	lbVIPAddr  = "10.0.0.100"
	lbVIPPort  = uint16(80)
	lbBackPort = uint16(8080)
	lbQuitByte = 'Q' // request prefix that tells a backend to stop serving
)

// RunLB builds a network — one load-balancer host, a backend pool, and
// client hosts — and runs the churn workload to completion plus drain.
// Deterministic for a given config: two runs produce byte-identical
// registry snapshots.
func RunLB(cfg LBConfig) (*LBReport, error) {
	n := NewConfig(Config{Seed: cfg.Seed, Metrics: true})
	defer n.Close()

	lb := n.Host("lb", "10.0.0.2", cfg.Arch)
	// One spare pool slot: AddAt installs backend index lbBackends.
	total := lbBackends
	if cfg.AddAt > 0 {
		total++
	}
	backends := make([]*Host, total)
	for i := range backends {
		backends[i] = n.Host(fmt.Sprintf("be%d", i), fmt.Sprintf("10.0.1.%d", i+1), cfg.Arch)
	}
	clients := make([]*Host, lbClients)
	for j := range clients {
		clients[j] = n.Host(fmt.Sprintf("cli%d", j), fmt.Sprintf("10.0.2.%d", j+1), cfg.Arch)
	}

	specs := make([]BackendSpec, lbBackends)
	for i := range specs {
		specs[i] = BackendSpec{Host: backends[i], Port: lbBackPort}
	}
	vip, err := lb.InstallVIP(lbVIPAddr, lbVIPPort, specs...)
	if err != nil {
		return nil, err
	}

	var errs errSink
	fail := func(err error) { errs.fail(0, 0, err) }

	// Backends: serve request/response exchanges until a quit request
	// arrives. Responses carry the backend's name so clients can account
	// serves per pool member.
	for i, h := range backends {
		i, h := i, h
		app := h.NewApp("backend")
		h.Spawn(fmt.Sprintf("be%d", i), func(t *Thread) {
			ls, err := listenOn(app, t, lbBackPort)
			if err != nil {
				fail(err)
				return
			}
			req := make([]byte, lbMsgBytes)
			resp := make([]byte, lbMsgBytes)
			copy(resp, h.Name())
			for {
				fd, _, err := app.Accept(t, ls)
				if err != nil {
					fail(err)
					return
				}
				// A short read is a client reset under churn; keep serving.
				if recvFull(app, t, fd, req) == nil {
					if req[0] == lbQuitByte {
						app.Close(t, fd)
						break
					}
					// A send error here means the client was reset under
					// churn; the connection is already accounted failed on
					// the client side.
					_ = sendFull(app, t, fd, resp)
				}
				app.Close(t, fd)
			}
			app.Close(t, ls)
		})
	}

	// Pool-churn controller on the load balancer's shard.
	if cfg.KillAt > 0 || cfg.AddAt > 0 {
		lb.Spawn("pool-ctl", func(t *Thread) {
			if cfg.KillAt > 0 {
				t.Sleep(cfg.KillAt)
				vip.KillBackend(0)
			}
			if cfg.AddAt > 0 {
				if d := cfg.AddAt - cfg.KillAt; d > 0 {
					t.Sleep(d)
				}
				nb := backends[total-1]
				vip.AddBackend(PoolBackend{
					Name: nb.Name(), IP: nb.ip, Port: lbBackPort, MAC: nb.kern.NIC.MAC(),
				})
			}
		})
	}

	// Clients: sequential connections through the VIP, tolerating (and
	// counting) failures during the churn window.
	rep := &LBReport{ConnsPlan: lbClients * lbConnsPerClient, BackendServed: make([]int64, total)}
	for j, h := range clients {
		j, h := j, h
		app := h.NewApp("client")
		h.Spawn(fmt.Sprintf("cli%d", j), func(t *Thread) {
			t.Sleep(time.Duration(j) * 5 * time.Millisecond)
			req := make([]byte, lbMsgBytes)
			copy(req, fmt.Sprintf("req cli%d", j))
			buf := make([]byte, lbMsgBytes)
			for k := 0; k < lbConnsPerClient; k++ {
				if k > 0 {
					t.Sleep(lbConnGap)
				}
				fd, err := app.Socket(t, SockStream)
				if err != nil {
					fail(err)
					return
				}
				if app.Connect(t, fd, Addr(lbVIPAddr, lbVIPPort)) == nil &&
					sendFull(app, t, fd, req) == nil && recvFull(app, t, fd, buf) == nil {
					rep.Served++
					name, _, _ := strings.Cut(string(buf), "\x00")
					if bi := slices.IndexFunc(backends, func(b *Host) bool { return b.Name() == name }); bi >= 0 {
						rep.BackendServed[bi]++
					} else {
						fail(fmt.Errorf("lb: response named unknown backend %q", name))
					}
				} else {
					rep.Failed++
				}
				app.Close(t, fd)
			}
		})
	}

	// Quitter: after every client finishes, tell each backend directly
	// (not through the VIP) to stop serving, so their accept loops exit.
	// Clients' threads are tracked by Run; we order the quitter after
	// them with a generous sleep past the workload's worst-case span.
	span := lbClients*5*time.Millisecond +
		lbConnsPerClient*(lbConnGap+200*time.Millisecond) +
		5*time.Second
	qapp := clients[0].NewApp("quitter")
	clients[0].Spawn("quitter", func(t *Thread) {
		t.Sleep(span)
		req := make([]byte, lbMsgBytes)
		req[0] = lbQuitByte
		for i, b := range backends {
			fd, err := qapp.Socket(t, SockStream)
			if err != nil {
				fail(err)
				return
			}
			if err := qapp.Connect(t, fd, b.Addr(lbBackPort)); err != nil {
				fail(fmt.Errorf("lb: quit be%d: %w", i, err))
				return
			}
			if _, err := qapp.Send(t, fd, req, 0); err != nil {
				fail(err)
			}
			qapp.Close(t, fd)
		}
	})

	if err := n.runAndDrain(&errs, lbDrain); err != nil {
		return nil, err
	}

	plane := lb.Dataplane()
	rep.LBConns = int64(plane.Stats.LBConns.Value())
	rep.Rehomed = int64(plane.Stats.LBRehomed.Value())
	rep.Resets = int64(plane.Stats.LBResets.Value())
	rep.Refused = int64(plane.Stats.LBRefused.Value())
	rep.CTCreated = int64(plane.Stats.CTCreated.Value())
	rep.CTExpired = int64(plane.Stats.CTExpired.Value())
	snap := n.MetricsSnapshot()
	rep.FlowsLeft = snap.Sum(".ct.flows")
	rep.SNATLeft = snap.Sum(".lb.snat_in_use")
	rep.Snapshot = snap
	rep.audit = n.Audit(snap, int(rep.Served), true)
	return rep, nil
}
