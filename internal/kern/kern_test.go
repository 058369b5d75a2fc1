package kern

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/costs"
	"repro/internal/filter"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/wire"
)

func testFrame(dst wire.MAC, proto uint8, srcIP, dstIP wire.IPAddr, sport, dport uint16, payload int) []byte {
	b := make([]byte, wire.EthHeaderLen+wire.IPv4HeaderLen+8+payload)
	eh := wire.EthHeader{Dst: dst, Src: wire.MAC{0xaa}, Type: wire.EtherTypeIPv4}
	eh.Marshal(b)
	ih := wire.IPv4Header{
		TotalLen: uint16(wire.IPv4HeaderLen + 8 + payload),
		TTL:      64, Proto: proto, Src: srcIP, Dst: dstIP,
	}
	ih.Marshal(b[wire.EthHeaderLen:])
	tp := b[wire.EthHeaderLen+wire.IPv4HeaderLen:]
	binary.BigEndian.PutUint16(tp[0:2], sport)
	binary.BigEndian.PutUint16(tp[2:4], dport)
	binary.BigEndian.PutUint16(tp[4:6], uint16(8+payload)) // the UDP length
	return b
}

type testRig struct {
	s    *sim.Sim
	seg  *simnet.Segment
	a, b *Host
}

func newRig(prof costs.Profile) *testRig {
	s := sim.New(1)
	seg := simnet.NewSegment(s)
	a := NewHost(s, seg, "alpha", wire.MAC{1}, wire.IP(10, 0, 0, 1), prof)
	b := NewHost(s, seg, "beta", wire.MAC{2}, wire.IP(10, 0, 0, 2), prof)
	return &testRig{s: s, seg: seg, a: a, b: b}
}

func TestRxDeliversToMatchingEndpoint(t *testing.T) {
	r := newRig(costs.DECLibrarySHMIPF())
	ep := r.b.NewEndpoint(0)
	if _, err := ep.InstallFilter(filter.MatchSpec{
		Proto: wire.ProtoUDP, LocalIP: r.b.IP, LocalPort: 53,
	}, 10); err != nil {
		t.Fatal(err)
	}
	var got []Packet
	r.s.Spawn("rx", func(p *sim.Proc) {
		pkt, ok := ep.Recv(p)
		if !ok {
			t.Error("recv failed")
			return
		}
		got = append(got, pkt)
	})
	r.a.NIC.Transmit(testFrame(r.b.NIC.MAC(), wire.ProtoUDP, r.a.IP, r.b.IP, 9000, 53, 100))
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Payload != 100 {
		t.Fatalf("got %v", got)
	}
	if r.b.RxFrames.Value() != 1 || ep.Delivered.Value() != 1 {
		t.Fatalf("stats: frames=%d delivered=%d", r.b.RxFrames.Value(), ep.Delivered.Value())
	}
}

func TestRxUnmatchedCounted(t *testing.T) {
	r := newRig(costs.DECLibrarySHMIPF())
	r.a.NIC.Transmit(testFrame(r.b.NIC.MAC(), wire.ProtoUDP, r.a.IP, r.b.IP, 9000, 53, 10))
	if err := r.s.RunFor(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if r.b.RxNoMatch.Value() != 1 {
		t.Fatalf("no-match = %d", r.b.RxNoMatch.Value())
	}
}

func TestCatchAllFallback(t *testing.T) {
	r := newRig(costs.DECLibrarySHMIPF())
	sess := r.b.NewEndpoint(0)
	sess.InstallFilter(filter.MatchSpec{Proto: wire.ProtoUDP, LocalIP: r.b.IP, LocalPort: 53}, 10)
	server := r.b.NewEndpoint(0)
	if _, err := server.InstallProgram(CatchAllProgram(), 0); err != nil {
		t.Fatal(err)
	}
	r.a.NIC.Transmit(testFrame(r.b.NIC.MAC(), wire.ProtoUDP, r.a.IP, r.b.IP, 9000, 53, 10))
	r.a.NIC.Transmit(testFrame(r.b.NIC.MAC(), wire.ProtoTCP, r.a.IP, r.b.IP, 1234, 80, 10))
	if err := r.s.RunFor(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if sess.Delivered.Value() != 1 || server.Delivered.Value() != 1 {
		t.Fatalf("session=%d server=%d", sess.Delivered.Value(), server.Delivered.Value())
	}
}

func TestEndpointOverflowDrops(t *testing.T) {
	r := newRig(costs.DECLibrarySHMIPF())
	ep := r.b.NewEndpoint(2)
	ep.InstallProgram(CatchAllProgram(), 0)
	for i := 0; i < 5; i++ {
		r.a.NIC.Transmit(testFrame(r.b.NIC.MAC(), wire.ProtoUDP, r.a.IP, r.b.IP, 1, 2, 10))
	}
	if err := r.s.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if ep.Delivered.Value() != 2 || ep.Drops.Value() != 3 {
		t.Fatalf("delivered=%d drops=%d", ep.Delivered.Value(), ep.Drops.Value())
	}
}

func TestRecvChargesIPCPerPacket(t *testing.T) {
	profIPC := costs.DECLibraryIPC()
	profSHM := costs.DECLibrarySHM()
	elapsed := func(prof costs.Profile) time.Duration {
		r := newRig(prof)
		ep := r.b.NewEndpoint(0)
		ep.InstallProgram(CatchAllProgram(), 0)
		r.a.NIC.Transmit(testFrame(r.b.NIC.MAC(), wire.ProtoUDP, r.a.IP, r.b.IP, 1, 2, 10))
		r.a.NIC.Transmit(testFrame(r.b.NIC.MAC(), wire.ProtoUDP, r.a.IP, r.b.IP, 1, 2, 10))
		// Let both packets be fully delivered before measuring dequeues.
		if err := r.s.RunFor(50 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if ep.pending() != 2 {
			t.Fatalf("expected 2 queued packets, have %d", ep.pending())
		}
		var start, end sim.Time
		r.s.Spawn("rx", func(p *sim.Proc) {
			start = p.Now()
			ep.Recv(p)
			ep.Recv(p)
			end = p.Now()
		})
		if err := r.s.Run(); err != nil {
			t.Fatal(err)
		}
		return end.Sub(start)
	}
	dIPC, dSHM := elapsed(profIPC), elapsed(profSHM)
	if dIPC <= dSHM {
		t.Fatalf("IPC dequeue (%v) should cost more than SHM dequeue (%v)", dIPC, dSHM)
	}
}

func TestRxPipelineTiming(t *testing.T) {
	// With the SHM-IPF profile and a 100-byte UDP payload, delivery should
	// complete at arrival + devread + netisr + copyout (no contention).
	prof := costs.DECLibrarySHMIPF()
	r := newRig(prof)
	ep := r.b.NewEndpoint(0)
	ep.InstallProgram(CatchAllProgram(), 0)
	var delivered sim.Time
	r.s.Spawn("rx", func(p *sim.Proc) {
		ep.Recv(p)
		delivered = p.Now()
	})
	frame := testFrame(r.b.NIC.MAC(), wire.ProtoUDP, r.a.IP, r.b.IP, 1, 2, 100)
	wireTime := time.Duration(wire.FrameWireSize(len(frame)-wire.EthHeaderLen)) * simnet.ByteTime
	r.a.NIC.Transmit(frame)
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	pc := prof.Costs.UDP
	want := wireTime +
		pc[costs.CompDeviceIntrRead].At(100) +
		pc[costs.CompNetisrPF].At(100) +
		pc[costs.CompKernelCopyout].At(100)
	if delivered.Duration() != want {
		t.Fatalf("delivered at %v, want %v", delivered.Duration(), want)
	}
}

// TestLedgerTakesEveryCharge drives every kind of CPU charge a host
// makes — a protocol layer at task and at interrupt priority, the
// receive path's event charges, the per-packet IPC receive and a proxy
// RPC — and finds each in its own component of the ledger, the ledger
// summing to the CPU's busy time in the registry as on the host, and the
// tap seeing what the ledger holds. A zero-length charge takes no turn
// at the CPU.
func TestLedgerTakesEveryCharge(t *testing.T) {
	prof := costs.DECLibraryIPC()
	prof.Offload = costs.DECLibrarySHMIPFOffload().Offload
	r := newRig(prof)
	reg := metrics.NewRegistry()
	r.a.SetMetrics(reg.Scope("host.alpha"))
	var tapped [costs.NumComponents]time.Duration
	r.a.Observe = func(c costs.Component, d time.Duration) { tapped[c] += d }
	ep := r.a.NewEndpoint(0)
	ep.InstallProgram(CatchAllProgram(), 0)

	var netisr *sim.Proc
	charge := r.a.ProtoCharge(&prof.Costs, func(t *sim.Proc) bool { return t == netisr })
	r.s.Spawn("app", func(p *sim.Proc) {
		charge(p, false, costs.CompTransportOutput, 10)
		cpu := &r.a.CPU
		uses := cpu.Uses()
		r.a.Charge(p, sim.TaskPriority, costs.CompEntryCopyin, 0)
		if cpu.Uses() != uses {
			t.Error("a zero-length charge took a turn at the CPU")
		}
		r.a.Charge(p, sim.TaskPriority, costs.CompProxyRPC, prof.ProxyRPC.At(64))
		ep.Recv(p)
	})
	r.s.Spawn("netisr", func(p *sim.Proc) {
		netisr = p
		charge(p, false, costs.CompTransportInput, 10)
	})
	r.a.Transmit(testFrame(r.b.NIC.MAC(), wire.ProtoUDP, r.a.IP, r.b.IP, 1, 2, 10))
	r.b.NIC.Transmit(testFrame(r.a.NIC.MAC(), wire.ProtoUDP, r.b.IP, r.a.IP, 2, 1, 10))
	if err := r.s.RunFor(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	charged := map[costs.Component]bool{
		costs.CompTransportOutput: true, costs.CompTransportInput: true, costs.CompProxyRPC: true,
		costs.CompDeviceIntrRead: true, costs.CompNetisrPF: true, costs.CompKernelCopyout: true,
		costs.CompIPCRecv: true,
	}
	var sum time.Duration
	for c := range r.a.Ledger {
		comp, d := costs.Component(c), time.Duration(r.a.Ledger[c].Value())
		if charged[comp] != (d > 0) {
			t.Errorf("%v: %v in the ledger, want charged %v", comp, d, charged[comp])
		}
		if tapped[c] != d {
			t.Errorf("%v: the tap saw %v, the ledger holds %v", comp, tapped[c], d)
		}
		sum += d
	}
	if sum != r.a.CPU.BusyTime() {
		t.Errorf("the ledger sums to %v, the CPU was busy %v", sum, r.a.CPU.BusyTime())
	}
	snap := reg.Snapshot(0)
	if it, ok := snap.Get("host.alpha.cpu.tcp_udp_output_ns"); !ok || it.Value == 0 {
		t.Errorf("tcp,udp_output not in the registry as tcp_udp_output_ns: %+v", it)
	}
}

func TestEndpointCloseWakesReceiver(t *testing.T) {
	r := newRig(costs.DECLibrarySHMIPF())
	ep := r.b.NewEndpoint(0)
	done := false
	r.s.Spawn("rx", func(p *sim.Proc) {
		_, ok := ep.Recv(p)
		if ok {
			t.Error("expected ok=false after close")
		}
		done = true
	})
	r.s.After(time.Millisecond, func() { ep.Close() })
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("receiver never woke")
	}
}

func TestFilterRemovedOnClose(t *testing.T) {
	r := newRig(costs.DECLibrarySHMIPF())
	ep := r.b.NewEndpoint(0)
	ep.InstallFilter(filter.MatchSpec{Proto: wire.ProtoUDP, LocalIP: r.b.IP, LocalPort: 53}, 5)
	ep.InstallFilter(filter.MatchSpec{Proto: wire.ProtoUDP, LocalIP: r.b.IP, LocalPort: 54}, 5)
	if r.b.Filters.Len() != 2 {
		t.Fatal("filters not installed")
	}
	ep.Close()
	if r.b.Filters.Len() != 0 {
		t.Fatal("filters not removed on close")
	}
}

func TestProcessExitNotification(t *testing.T) {
	r := newRig(costs.DECLibrarySHMIPF())
	pr := r.a.NewProcess("app")
	if r.a.Processes() != 1 {
		t.Fatal("process not registered")
	}
	var order []string
	pr.OnExit(func() { order = append(order, "first") })
	pr.OnExit(func() { order = append(order, "second") })
	pr.Exit()
	pr.Exit() // idempotent
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("exit callbacks: %v", order)
	}
	if r.a.Processes() != 0 || !pr.Exited() {
		t.Fatal("process not removed")
	}
	ran := false
	pr.OnExit(func() { ran = true })
	if !ran {
		t.Fatal("OnExit after exit must run immediately")
	}
}

func TestServiceRPC(t *testing.T) {
	r := newRig(costs.DECLibrarySHMIPF())
	srvProc := r.a.NewProcess("server")
	svc := NewService(srvProc, "echo", 2)
	results := make([]int, 3)
	workers := map[*sim.Proc]bool{}
	for i := 0; i < 3; i++ {
		i := i
		r.s.Spawn("client", func(p *sim.Proc) {
			svc.Call(p, func(w *sim.Proc) {
				if w == p {
					t.Error("work ran on the calling thread, not a server worker")
				}
				workers[w] = true
				w.Sleep(time.Millisecond) // simulated work
				results[i] = i * 2
			})
		})
	}
	var gotErr error
	r.s.Spawn("failer", func(p *sim.Proc) {
		svc.Call(p, func(*sim.Proc) { gotErr = fmt.Errorf("boom") })
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range results {
		if v != i*2 {
			t.Fatalf("results = %v", results)
		}
	}
	if gotErr == nil {
		t.Fatal("error not propagated")
	}
	if len(workers) != 2 {
		t.Fatalf("calls ran on %d distinct workers, want 2", len(workers))
	}
}

func TestServiceWorkersRunConcurrently(t *testing.T) {
	r := newRig(costs.DECLibrarySHMIPF())
	srvProc := r.a.NewProcess("server")
	svc := NewService(srvProc, "slow", 2)
	var done []sim.Time
	for i := 0; i < 2; i++ {
		r.s.Spawn("client", func(p *sim.Proc) {
			svc.Call(p, func(w *sim.Proc) { w.Sleep(10 * time.Millisecond) })
			done = append(done, p.Now())
		})
	}
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	// With 2 workers both calls finish at 10ms; with 1 they would
	// serialize to 10ms and 20ms.
	if len(done) != 2 || done[0] != done[1] {
		t.Fatalf("completion times %v; workers not concurrent", done)
	}
}

// TestServiceSpawnsWorkersOnDemand: a service starts no worker until a
// call finds none parked, so sequential calls share one worker, k calls
// in flight at once run on k workers up to the cap, a call past the cap
// waits its turn in arrival order, and the owner's exit ends them all.
func TestServiceSpawnsWorkersOnDemand(t *testing.T) {
	r := newRig(costs.DECLibrarySHMIPF())
	owner := r.a.NewProcess("server")
	svc := NewService(owner, "echo", 3)
	workerProcs := func() int {
		n := 0
		for _, name := range r.s.ParkedProcs() {
			if strings.Contains(name, "-worker") {
				n++
			}
		}
		return n
	}
	run := func() {
		t.Helper()
		if err := r.s.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if svc.workers != 0 || workerProcs() != 0 {
		t.Fatalf("%d workers (%d procs) before the first call, want none", svc.workers, workerProcs())
	}

	seen := map[*sim.Proc]bool{}
	r.s.Spawn("sequential", func(p *sim.Proc) {
		for range 3 {
			svc.Call(p, func(w *sim.Proc) { seen[w] = true; w.Sleep(time.Millisecond) })
		}
	})
	run()
	if len(seen) != 1 || svc.workers != 1 || workerProcs() != 1 {
		t.Fatalf("3 sequential calls ran on %d workers, %d spawned, want 1", len(seen), svc.workers)
	}

	// k calls at once, each holding its worker for 10ms: the calls past
	// the workers parked spawn new ones, up to the cap of 3; the rest
	// queue and start in call order as the first ones finish.
	burst := func(k int) string {
		var started []int
		var finished []int64
		clear(seen)
		t0 := r.s.Now()
		for i := range k {
			r.s.Spawn("burst", func(p *sim.Proc) {
				svc.Call(p, func(w *sim.Proc) {
					seen[w] = true
					started = append(started, i)
					w.Sleep(10 * time.Millisecond)
				})
				finished = append(finished, p.Now().Sub(t0).Milliseconds())
			})
		}
		run()
		return fmt.Sprint(len(seen), svc.workers, workerProcs(), started, finished)
	}
	if got, want := burst(2), "2 2 2 [0 1] [10 10]"; got != want {
		t.Fatalf("2 calls at once: workers used, spawned, alive, start order, ms to finish = %s, want %s", got, want)
	}
	if got, want := burst(5), "3 3 3 [0 1 2 3 4] [10 10 10 20 20]"; got != want {
		t.Fatalf("5 calls at once: workers used, spawned, alive, start order, ms to finish = %s, want %s", got, want)
	}

	owner.Exit()
	run()
	if n := workerProcs(); n != 0 {
		t.Fatalf("%d workers outlived their owner", n)
	}
}

// TestServiceCallAllocatesNothing: once warm, an RPC whose run is bound
// once allocates nothing. Two clients keep two calls in flight at once,
// so each takes a record of its own from the service and hands it back;
// the first step spawns the two workers that serve them.
func TestServiceCallAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are not meaningful")
	}
	r := newRig(costs.DECLibrarySHMIPF())
	svc := NewService(r.a.NewProcess("server"), "echo", 2)
	calls := 0
	run := func(w *sim.Proc) {
		w.Sleep(100 * time.Microsecond)
		calls++
	}
	const period = time.Millisecond
	for range 2 {
		r.s.SpawnDaemon("client", func(p *sim.Proc) {
			for {
				svc.Call(p, run)
				p.Sleep(period)
			}
		})
	}
	step := func() {
		if err := r.s.RunFor(period); err != nil {
			t.Fatal(err)
		}
	}
	step()
	warm := calls
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Errorf("a step of two RPCs allocates %.2f objects, want 0", n)
	}
	if calls-warm < 180 {
		t.Fatalf("only %d calls in 101 periods", calls-warm)
	}
}

func TestChargeProcAdvancesClock(t *testing.T) {
	r := newRig(costs.DECLibrarySHMIPF())
	var took time.Duration
	r.s.Spawn("w", func(p *sim.Proc) {
		start := p.Now()
		r.a.Charge(p, sim.TaskPriority, costs.CompEntryCopyin, 5*time.Millisecond)
		r.a.Charge(p, sim.TaskPriority, costs.CompEntryCopyin, 0) // no-op
		took = p.Now().Sub(start)
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	if took != 5*time.Millisecond {
		t.Fatalf("charged %v", took)
	}
	if r.a.CPU.BusyTime() != 5*time.Millisecond {
		t.Fatalf("cpu busy %v", r.a.CPU.BusyTime())
	}
}

// TestEndpointChurnLeavesNothing: a host that creates and closes an
// endpoint per session holds on to none of them — the endpoints gauge
// and the filter set end where they started.
func TestEndpointChurnLeavesNothing(t *testing.T) {
	r := newRig(costs.DECLibrarySHMIPF())
	reg := metrics.NewRegistry()
	r.b.SetMetrics(reg.Scope("host.beta"))
	gauge := func() int64 {
		it, ok := reg.Snapshot(0).Get("host.beta.kern.endpoints")
		if !ok {
			t.Fatal("no endpoints gauge")
		}
		return it.Value
	}
	server := r.b.NewEndpoint(0)
	server.InstallProgram(CatchAllProgram(), 0)
	startGauge, startFilters := gauge(), r.b.Filters.Len()
	for i := 0; i < 1000; i++ {
		ep := r.b.NewEndpoint(0)
		if _, err := ep.InstallFilter(filter.MatchSpec{
			Proto: wire.ProtoTCP, LocalIP: r.b.IP, LocalPort: 80, RemoteIP: r.a.IP, RemotePort: uint16(1024 + i),
		}, 1); err != nil {
			t.Fatal(err)
		}
		if gauge() != startGauge+1 {
			t.Fatalf("cycle %d: gauge %d with one session open, started at %d", i, gauge(), startGauge)
		}
		ep.Close()
		ep.Close() // closing twice counts once
	}
	if gauge() != startGauge || r.b.Filters.Len() != startFilters {
		t.Fatalf("after 1000 cycles: gauge %d (was %d), %d filters (were %d)",
			gauge(), startGauge, r.b.Filters.Len(), startFilters)
	}
}

// TestFirstInstalledSessionWins: an unconnected UDP session and a later
// connected one on the same port both accept the connected peer's
// datagrams; at equal priority the one installed first gets them,
// whichever that is, as the kernel's sequential run of the filters has
// it.
func TestFirstInstalledSessionWins(t *testing.T) {
	for _, connectedFirst := range []bool{false, true} {
		r := newRig(costs.DECLibrarySHMIPF())
		unconnected := filter.MatchSpec{Proto: wire.ProtoUDP, LocalIP: r.b.IP, LocalPort: 53}
		connected := unconnected
		connected.RemoteIP, connected.RemotePort = r.a.IP, 9000
		specs := []filter.MatchSpec{unconnected, connected}
		if connectedFirst {
			specs[0], specs[1] = specs[1], specs[0]
		}
		first, second := r.b.NewEndpoint(0), r.b.NewEndpoint(0)
		first.InstallFilter(specs[0], 1)
		second.InstallFilter(specs[1], 1)
		r.a.NIC.Transmit(testFrame(r.b.NIC.MAC(), wire.ProtoUDP, r.a.IP, r.b.IP, 9000, 53, 10))
		if err := r.s.RunFor(50 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if first.Delivered.Value() != 1 || second.Delivered.Value() != 0 {
			t.Errorf("connected first %v: first installed got %d, second %d", connectedFirst,
				first.Delivered.Value(), second.Delivered.Value())
		}
		// With the first gone the second takes over.
		first.Close()
		r.a.NIC.Transmit(testFrame(r.b.NIC.MAC(), wire.ProtoUDP, r.a.IP, r.b.IP, 9000, 53, 10))
		if err := r.s.RunFor(50 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if second.Delivered.Value() != 1 {
			t.Errorf("connected first %v: second got %d after the first closed", connectedFirst, second.Delivered.Value())
		}
	}
}

// TestShallowEndpointQueueAllocatesNothing: an endpoint's first four
// queued packets go into the array allocated with it, so a new session's
// endpoint grows no queue on its first packets; a fifth grows one, as
// every deeper queue does.
func TestShallowEndpointQueueAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under the race detector")
	}
	r := newRig(costs.DECLibrarySHMIPF())
	frame := simnet.Frame{Data: testFrame(wire.MAC{2}, wire.ProtoUDP, r.a.IP, r.b.IP, 1000, 53, 16)}
	const runs = 50
	fill := func(n int) float64 {
		eps := make([]*Endpoint, runs+1)
		for i := range eps {
			eps[i] = r.b.NewEndpoint(0)
		}
		next := 0
		return testing.AllocsPerRun(runs, func() {
			e := eps[next]
			next++
			for range n {
				e.deliver(r.b, frame, 16)
			}
			if e.pending() != n {
				t.Fatalf("%d queued, want %d", e.pending(), n)
			}
		})
	}
	if n := fill(4); n != 0 {
		t.Errorf("four packets into a new endpoint allocate %.2f objects, want 0", n)
	}
	if n := fill(5); n == 0 {
		t.Error("five packets into a new endpoint allocate nothing: the measurement sees no queue growth")
	}
}
