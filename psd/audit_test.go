package psd

import (
	"strings"
	"testing"
	"time"

	"repro/internal/costs"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// auditWorld runs one echoed TCP connection between two subnets joined
// by a router-to-router trunk, then drains the network. keepListener
// leaves the server's listening socket open.
func auditWorld(t *testing.T, arch Arch, keepListener bool) (*Network, *MetricsSnapshot) {
	t.Helper()
	n := NewConfig(Config{Seed: 1, Metrics: true})
	t.Cleanup(n.Close)
	west, east := n.NewSubnet("west", "10.1.0.0/24"), n.NewSubnet("east", "10.2.0.0/24")
	rw := n.NewRouter("rw").Attach(west, "10.1.0.254")
	re := n.NewRouter("re").Attach(east, "10.2.0.254")
	n.NewTrunk("t", "172.16.0.0/30", time.Millisecond).Attach(rw, "172.16.0.1").Attach(re, "172.16.0.2")
	if err := rw.AddRoute("10.2.0.0/24", "172.16.0.2"); err != nil {
		t.Fatal(err)
	}
	if err := re.AddRoute("10.1.0.0/24", "172.16.0.1"); err != nil {
		t.Fatal(err)
	}
	cli, srv := west.Host("cli", "10.1.0.1", arch), east.Host("srv", "10.2.0.1", arch)

	var errs errSink
	sapp, capp := srv.NewApp("echo"), cli.NewApp("client")
	n.Spawn("srv", func(p *Thread) {
		ls, err := listenOn(sapp, p, 7)
		if err != nil {
			errs.fail(0, 0, err)
			return
		}
		fd, _, err := sapp.Accept(p, ls)
		if err != nil {
			errs.fail(0, 0, err)
			return
		}
		buf := make([]byte, 4)
		if err := recvFull(sapp, p, fd, buf); err == nil {
			errs.fail(0, 0, sendFull(sapp, p, fd, buf))
		}
		sapp.Close(p, fd)
		if !keepListener {
			sapp.Close(p, ls)
		}
	})
	n.Spawn("cli", func(p *Thread) {
		fd, err := capp.Socket(p, SockStream)
		if err == nil {
			err = capp.Connect(p, fd, srv.Addr(7))
		}
		if err == nil {
			err = sendFull(capp, p, fd, []byte("ping"))
		}
		if err == nil {
			err = recvFull(capp, p, fd, make([]byte, 4))
		}
		errs.fail(0, 0, err)
		capp.Close(p, fd)
	})
	if err := n.runAndDrain(&errs, 75*time.Second); err != nil {
		t.Fatal(err)
	}
	return n, n.MetricsSnapshot()
}

// TestAuditCatchesEachLaw: the audit passes a clean drained run without
// allocating, and names the law when one live quantity is doctored. The
// open listener runs in-kernel: on an OS server its session record is
// unreaped too, which the conns law, earlier in the list, reports first.
func TestAuditCatchesEachLaw(t *testing.T) {
	n, snap := auditWorld(t, Decomposed(), false)
	if err := n.Audit(snap, 1, true); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = n.Audit(snap, 1, true) }); allocs != 0 {
		t.Errorf("a passing audit allocated %v times", allocs)
	}

	for _, c := range []struct {
		law    string
		keep   bool // leave the listener open
		plan   int
		doctor func(n *Network)
	}{
		{law: "ledger", plan: 1, doctor: func(n *Network) { n.hosts[0].kern.Ledger[0].Add(1) }},
		{law: "trunks", plan: 1, doctor: func(n *Network) { n.trunks[0].dirs[0].DirStats().FramesSent.Inc() }},
		{law: "conns", plan: 2},
		{law: "residue", keep: true, plan: 1},
	} {
		arch := Decomposed()
		if c.keep {
			arch = InKernel()
		}
		n, snap := auditWorld(t, arch, c.keep)
		if c.doctor != nil {
			c.doctor(n)
		}
		err := n.Audit(snap, c.plan, true)
		if err == nil || !strings.HasPrefix(err.Error(), c.law+": ") {
			t.Errorf("doctored %s: audit = %v, want a %q failure", c.law, err, c.law)
		}
	}
}

// TestLedgerLawStoppedMidCharge: a run stopped while charges wait for a
// busy CPU keeps the ledger law, because a charge enters the ledger
// when it is asked for and the CPU's busy time when it is admitted. The
// run stops with one of three charges running and two queued, then with
// the second running and one queued. A charge that skips the ledger
// still breaks the law.
func TestLedgerLawStoppedMidCharge(t *testing.T) {
	run := func(stop time.Duration, unledgered bool) error {
		n := New(1)
		t.Cleanup(n.Close)
		h := n.Host("a", "10.0.0.1", InKernel()).Kern()
		for i := 0; i < 3; i++ {
			n.Spawn("charger", func(p *Thread) {
				h.Charge(p, sim.TaskPriority, costs.CompProxyRPC, 10*time.Millisecond)
			})
		}
		if unledgered {
			n.Spawn("bypass", func(p *Thread) { h.CPU.Use(p, sim.TaskPriority, 10*time.Millisecond) })
		}
		if err := n.RunFor(stop); err != nil {
			t.Fatal(err)
		}
		if h.CPU.Waiting() == 0 {
			t.Fatalf("stopped at %v with nothing waiting for the CPU", stop)
		}
		return n.Audit(nil, 0, false)
	}
	for _, stop := range []time.Duration{5 * time.Millisecond, 15 * time.Millisecond} {
		if err := run(stop, false); err != nil {
			t.Errorf("stopped at %v: %v", stop, err)
		}
	}
	if err := run(15*time.Millisecond, true); err == nil || !strings.HasPrefix(err.Error(), "ledger: ") {
		t.Errorf("a charge outside the ledger: audit = %v, want a ledger failure", err)
	}
}

// boundNetwork builds a small hand-built registry for the scenario bound
// helpers. Two hosts' rtt histograms merge into 200 samples whose p99.9
// is the 80 ms outlier, exact because a quantile is clamped to the
// largest sample.
func boundNetwork() (*Network, *metrics.Snapshot) {
	reg := metrics.NewRegistry()
	a, b := reg.Scope("host.a.stack"), reg.Scope("host.b.stack")
	ha, hb := a.Histogram("rtt_ns"), b.Histogram("rtt_ns")
	for i := 0; i < 100; i++ {
		ha.Observe(int64(time.Millisecond))
		hb.Observe(int64(2 * time.Millisecond))
	}
	ha.Observe(int64(80 * time.Millisecond))
	a.Histogram("connect_ns") // registered, never sampled
	a.NewCounter("frames_sent").Add(1000)
	a.NewCounter("drops").Add(5)
	a.GaugeFunc("tcp_state.time_wait", func() int64 { return 0 })
	snap := reg.Snapshot(time.Second)
	return &Network{reg: reg}, &snap
}

type boundCase struct {
	law  law
	want bool
}

func checkBounds(t *testing.T, cases []boundCase) {
	t.Helper()
	n, snap := boundNetwork()
	for _, c := range cases {
		ok, detail := c.law.check(n, snap, 0)
		if ok != c.want || detail == "" {
			t.Errorf("%s: got %v (%q), want %v with a detail", c.law.name, ok, detail, c.want)
		}
	}
}

// TestQuantileAtMost holds the quantile bound just inside and just
// outside the merged p99.9, and fails it on a histogram with no samples
// or no histogram at all.
func TestQuantileAtMost(t *testing.T) {
	checkBounds(t, []boundCase{
		{quantileAtMost("p999-inside", ".rtt_ns", 0.999, 80*time.Millisecond), true},
		{quantileAtMost("p999-outside", ".rtt_ns", 0.999, 80*time.Millisecond-1), false},
		{quantileAtMost("no-samples", ".connect_ns", 0.5, time.Hour), false},
		{quantileAtMost("no-histogram", ".no_such", 0.5, time.Hour), false},
	})
}

// TestSumsAndRatios holds the ratio and sum bounds just inside and just
// outside their limits.
func TestSumsAndRatios(t *testing.T) {
	checkBounds(t, []boundCase{
		{ratioAtMost("ratio-inside", ".drops", ".frames_sent", 0.005), true},
		{ratioAtMost("ratio-outside", ".drops", ".frames_sent", 0.0049), false},
		{ratioAtMost("zero-den", ".drops", ".no_such", 1), false},
		{ratioAtMost("zero-over-zero", ".tcp_state.time_wait", ".no_such", 0), true},
		{sumAtLeast("sum-inside", ".frames_sent", 1000), true},
		{sumAtLeast("sum-outside", ".frames_sent", 1001), false},
		{sumZero("zero", ".tcp_state.time_wait"), true},
		{sumZero("nonzero", ".drops"), false},
	})
}
