package simnet

import (
	"fmt"

	"repro/internal/fault"
	"sort"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

// trunkPair builds a two-shard group joined by one trunk and returns
// the group and the two ends. Each end logs its receptions into its own
// single-writer log slice.
func trunkPair(seed int64, prop time.Duration, logs *[2][]string) (*sim.Group, *NIC, *NIC) {
	g := sim.NewGroup(seed, 2)
	tr := NewTrunk(g.Shard(0), prop)
	a := tr.AttachOn(g.Shard(0), "west", wire.MAC{1})
	b := tr.AttachOn(g.Shard(1), "east", wire.MAC{2})
	a.Rx = func(f Frame) {
		(*logs)[0] = append((*logs)[0], fmt.Sprintf("a@%d len=%d", int64(g.Shard(0).Now()), len(f.Data)))
	}
	b.Rx = func(f Frame) {
		(*logs)[1] = append((*logs)[1], fmt.Sprintf("b@%d len=%d", int64(g.Shard(1).Now()), len(f.Data)))
	}
	return g, a, b
}

// runTrunkPingPong drives count round trips across a trunk and returns
// the two per-end logs. Each reception triggers a reply, so traffic
// continuously crosses the shard boundary in both directions.
func runTrunkPingPong(t *testing.T, serial bool, count int) ([2][]string, *NIC, *NIC) {
	t.Helper()
	var logs [2][]string
	g, a, b := trunkPair(7, 200*time.Microsecond, &logs)
	g.SingleThreaded = serial
	g.Deadline = sim.Time(10 * time.Second)
	sent := 0
	a.Rx = func(f Frame) {
		logs[0] = append(logs[0], fmt.Sprintf("a@%d len=%d", int64(g.Shard(0).Now()), len(f.Data)))
		if sent < count {
			sent++
			a.Transmit(frameTo(wire.MAC{2}, wire.MAC{1}, 100+sent%32))
		}
	}
	b.Rx = func(f Frame) {
		logs[1] = append(logs[1], fmt.Sprintf("b@%d len=%d", int64(g.Shard(1).Now()), len(f.Data)))
		b.Transmit(frameTo(wire.MAC{1}, wire.MAC{2}, 64))
	}
	g.Shard(0).At(sim.Time(0).Add(time.Millisecond), func() {
		sent++
		a.Transmit(frameTo(wire.MAC{2}, wire.MAC{1}, 100))
	})
	if err := g.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return logs, a, b
}

func TestTrunkDeliversBothDirections(t *testing.T) {
	logs, a, b := runTrunkPingPong(t, true, 10)
	if len(logs[1]) != 10 || len(logs[0]) != 10 {
		t.Fatalf("receptions: a=%d b=%d, want 10 each", len(logs[0]), len(logs[1]))
	}
	if a.DirStats().FramesSent.Value() != 10 || b.DirStats().FramesSent.Value() != 10 {
		t.Fatalf("dir frames sent: a=%d b=%d",
			a.DirStats().FramesSent.Value(), b.DirStats().FramesSent.Value())
	}
	if a.RxFrames.Value() != 10 || b.RxFrames.Value() != 10 {
		t.Fatalf("rx frames: a=%d b=%d", a.RxFrames.Value(), b.RxFrames.Value())
	}
}

func TestTrunkSerialParallelIdentical(t *testing.T) {
	serial, _, _ := runTrunkPingPong(t, true, 200)
	parallel, _, _ := runTrunkPingPong(t, false, 200)
	for end := 0; end < 2; end++ {
		if len(serial[end]) != len(parallel[end]) {
			t.Fatalf("end %d: serial %d entries, parallel %d", end, len(serial[end]), len(parallel[end]))
		}
		for i := range serial[end] {
			if serial[end][i] != parallel[end][i] {
				t.Fatalf("end %d entry %d: serial %q parallel %q", end, i, serial[end][i], parallel[end][i])
			}
		}
	}
}

func TestTrunkLookaheadRegistered(t *testing.T) {
	g := sim.NewGroup(1, 2)
	NewTrunk(g.Shard(0), 50*time.Millisecond)
	if got := g.Lookahead(); got != 50*time.Millisecond {
		t.Fatalf("lookahead = %v, want 50ms", got)
	}
	// A second, faster trunk shrinks the group lookahead.
	NewTrunk(g.Shard(1), 300*time.Microsecond)
	if got := g.Lookahead(); got != 300*time.Microsecond {
		t.Fatalf("lookahead = %v, want 300µs", got)
	}
	// Zero-latency trunks clamp to the documented minimum.
	NewTrunk(g.Shard(0), 0)
	if got := g.Lookahead(); got != sim.MinLookahead {
		t.Fatalf("lookahead = %v, want MinLookahead %v", got, sim.MinLookahead)
	}
}

func TestTrunkRejectsThirdStation(t *testing.T) {
	g := sim.NewGroup(1, 2)
	tr := NewTrunk(g.Shard(0), time.Millisecond)
	tr.AttachOn(g.Shard(0), "a", wire.MAC{1})
	tr.AttachOn(g.Shard(1), "b", wire.MAC{2})
	defer func() {
		if recover() == nil {
			t.Fatal("third AttachOn on a trunk did not panic")
		}
	}()
	tr.AttachOn(g.Shard(0), "c", wire.MAC{3})
}

func TestSharedSegmentRejectsForeignShard(t *testing.T) {
	g := sim.NewGroup(1, 2)
	seg := NewSegment(g.Shard(0))
	defer func() {
		if recover() == nil {
			t.Fatal("AttachOn with a foreign shard did not panic")
		}
	}()
	seg.AttachOn(g.Shard(1), "x", wire.MAC{1})
}

// TestTrunkFaultsStable: fault decisions on a trunk come from per-link
// name-derived streams, so loss patterns are identical serial vs
// parallel.
func TestTrunkFaultsStable(t *testing.T) {
	run := func(serial bool) []string {
		var logs [2][]string
		g, a, b := trunkPair(11, 150*time.Microsecond, &logs)
		g.SingleThreaded = serial
		g.Deadline = sim.Time(10 * time.Second)
		a.seg.Faults().SetLinkRates("west", faultRates(0.2))
		a.seg.Faults().SetLinkRates("east", faultRates(0.1))
		for i := 0; i < 50; i++ {
			i := i
			g.Shard(0).At(sim.Time(0).Add(time.Duration(i+1)*time.Millisecond), func() {
				a.Transmit(frameTo(wire.MAC{2}, wire.MAC{1}, 64+i))
			})
			g.Shard(1).At(sim.Time(0).Add(time.Duration(i+1)*time.Millisecond+500*time.Microsecond), func() {
				b.Transmit(frameTo(wire.MAC{1}, wire.MAC{2}, 32+i))
			})
		}
		if err := g.RunFor(time.Second); err != nil {
			t.Fatal(err)
		}
		all := append(append([]string(nil), logs[0]...), logs[1]...)
		sort.Strings(all)
		all = append(all, fmt.Sprintf("westdrops=%d eastdrops=%d",
			a.DirStats().DropsLoss.Value(), b.DirStats().DropsLoss.Value()))
		return all
	}
	serial, parallel := run(true), run(false)
	if len(serial) != len(parallel) {
		t.Fatalf("serial %d entries, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("entry %d: serial %q parallel %q", i, serial[i], parallel[i])
		}
	}
	if serial[len(serial)-1] == "westdrops=0 eastdrops=0" {
		t.Fatal("fault rates injected no loss; test is vacuous")
	}
}

func faultRates(drop float64) fault.Rates { return fault.Rates{Drop: drop} }

// TestTrunkCrossingAllocatesNothing: once warm, a frame crossing a trunk
// between two shards, in either direction, allocates nothing: the
// arrival is a pooled record, not a closure per frame. Each end answers
// what it receives, so one run carries about a hundred crossings;
// the worker goroutines a parallel run starts are the only allocations,
// the same as a run that carries nothing.
func TestTrunkCrossingAllocatesNothing(t *testing.T) {
	for _, serial := range []bool{true, false} {
		var logs [2][]string
		g, a, b := trunkPair(7, 10*time.Microsecond, &logs)
		g.SingleThreaded = serial
		toB, toA := frameTo(wire.MAC{2}, wire.MAC{1}, 100), frameTo(wire.MAC{1}, wire.MAC{2}, 64)
		var got [2]int
		pong := true
		a.Rx = func(Frame) {
			got[0]++
			if pong {
				a.Transmit(toB)
			}
		}
		b.Rx = func(Frame) {
			got[1]++
			b.Transmit(toA)
		}
		run := func() {
			if err := g.RunFor(10 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		a.Transmit(toB)
		run()
		pong = false
		run() // the last frame lands; the trunk is idle from here on
		idle := testing.AllocsPerRun(10, run)
		pong = true
		a.Transmit(toB)
		before := got
		busy := testing.AllocsPerRun(10, run)
		crossings := got[0] - before[0] + got[1] - before[1]
		if crossings < 1000 {
			t.Fatalf("serial=%v: %d crossings in 11 runs, want at least 1000", serial, crossings)
		}
		if busy > idle && !raceEnabled { // sync.Pool drops items under the race detector
			t.Errorf("serial=%v: a run of %d crossings allocated %v times, an idle one %v", serial, crossings/11, busy, idle)
		}
	}
}
