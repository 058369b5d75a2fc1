package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"
)

// testLink is a minimal cross-shard channel: a fixed origin id per
// direction, a per-direction sequence, and a propagation delay — the
// same shape simnet trunks use.
type testLink struct {
	src, dst *Sim
	origin   uint64
	oseq     uint64
	prop     time.Duration
}

func newTestLink(g *Group, src, dst *Sim, prop time.Duration) *testLink {
	prop = g.ObserveLookahead(prop)
	return &testLink{src: src, dst: dst, origin: src.AllocOrigin(), prop: prop}
}

func (l *testLink) send(fn func()) {
	l.oseq++
	l.src.SendRemote(l.dst, l.src.Now().Add(l.prop), l.origin, l.oseq, fn)
}

// TestBandOrdering checks the (at, band, origin, seq) tie-break: at one
// instant, local events run first in FIFO order, then deliveries in
// (origin, oseq) order regardless of insertion order.
func TestBandOrdering(t *testing.T) {
	s := New(1)
	var got []string
	// Deliveries inserted deliberately out of key order.
	s.ScheduleRemote(1000, 7, 2, func() { got = append(got, "o7s2") })
	s.ScheduleRemote(1000, 7, 1, func() { got = append(got, "o7s1") })
	s.ScheduleRemote(1000, 3, 9, func() { got = append(got, "o3s9") })
	s.At(1000, func() { got = append(got, "localA") })
	s.At(1000, func() { got = append(got, "localB") })
	if err := s.RunUntil(1000); err != nil {
		t.Fatal(err)
	}
	want := []string{"localA", "localB", "o3s9", "o7s1", "o7s2"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

// TestStandaloneOrderUnchanged guards the classic FIFO tie-break: for a
// plain Sim, same-instant events still run in scheduling order.
func TestStandaloneOrderUnchanged(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 8; i++ {
		i := i
		s.At(500, func() { got = append(got, i) })
	}
	if err := s.RunUntil(500); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant FIFO broken: %v", got)
		}
	}
}

// pingPong builds a deterministic multi-shard workload: each shard
// runs a foreground proc that streams timestamped messages over a link
// to its neighbor, interleaved with local timers. Each shard logs only
// its own activity (single-writer, like every real component), so the
// per-shard logs are valid in parallel mode; they are the determinism
// oracle.
func pingPong(g *Group, rounds int) [][]string {
	k := g.NumShards()
	logs := make([][]string, k)
	for i := 0; i < k; i++ {
		i := i
		s := g.Shard(i)
		next := g.Shard((i + 1) % k)
		l := newTestLink(g, s, next, 50*time.Microsecond)
		s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for r := 0; r < rounds; r++ {
				r := r
				dst := l.dst.ShardID()
				l.send(func() {
					logs[dst] = append(logs[dst], fmt.Sprintf("%v rx from=%d round=%d", l.dst.Now(), i, r))
				})
				p.Sleep(30 * time.Microsecond)
				logs[i] = append(logs[i], fmt.Sprintf("%v tick shard=%d round=%d", s.Now(), i, r))
			}
		})
	}
	return logs
}

// TestSerialParallelIdentical is the core golden-equivalence property
// at the engine level: SingleThreaded and worker-goroutine execution
// produce identical per-shard logs, clocks, and dispatch counts.
func TestSerialParallelIdentical(t *testing.T) {
	run := func(single bool) ([][]string, Time, uint64) {
		g := NewGroup(42, 3)
		g.SingleThreaded = single
		logs := pingPong(g, 25)
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		return logs, g.Now(), g.Dispatched()
	}
	sLog, sNow, sN := run(true)
	pLog, pNow, pN := run(false)
	if !reflect.DeepEqual(sLog, pLog) {
		t.Fatalf("serial and parallel logs differ:\nserial:   %v\nparallel: %v", sLog, pLog)
	}
	if sNow != pNow || sN != pN {
		t.Fatalf("clock/dispatch divergence: serial (%v, %d) parallel (%v, %d)", sNow, sN, pNow, pN)
	}
	if len(sLog[0]) == 0 {
		t.Fatal("workload produced no log")
	}
}

// TestShardCountRegression: a fixed logical workload must produce the
// same set of timestamped observations under shard counts {1, 2, 8,
// NumCPU} (parallel workers each time). Entries carry their own
// canonical key (time, entity, round), so the flattened sorted logs
// must match exactly.
func TestShardCountRegression(t *testing.T) {
	counts := []int{1, 2, 8, runtime.NumCPU()}
	const procs = 8 // fixed logical parties, placed round-robin on shards
	run := func(k int) []string {
		g := NewGroup(7, k)
		logs := make([][]string, k)
		for i := 0; i < procs; i++ {
			i := i
			s := g.Shard(i % k)
			next := g.Shard((i + 1) % procs % k)
			l := newTestLink(g, s, next, 80*time.Microsecond)
			s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for r := 0; r < 10; r++ {
					r := r
					dst := l.dst.ShardID()
					l.send(func() {
						logs[dst] = append(logs[dst], fmt.Sprintf("%v rx origin=%d round=%d", l.dst.Now(), l.origin, r))
					})
					p.Sleep(time.Duration(30+i) * time.Microsecond)
				}
			})
		}
		if err := g.Run(); err != nil {
			t.Fatal(err)
		}
		// Drain deliveries still in flight when the last proc exited.
		if err := g.RunFor(10 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		var flat []string
		for _, lg := range logs {
			flat = append(flat, lg...)
		}
		sort.Strings(flat)
		return flat
	}
	want := run(counts[0])
	if len(want) != procs*10 {
		t.Fatalf("baseline produced %d entries, want %d", len(want), procs*10)
	}
	for _, k := range counts[1:] {
		if got := run(k); !reflect.DeepEqual(got, want) {
			t.Fatalf("shard count %d changed the observations:\nwant %v\ngot  %v", k, want, got)
		}
	}
}

// TestMinLookaheadClamp: zero- and sub-minimum-latency links get the
// documented floor instead of deadlocking the window schedule.
func TestMinLookaheadClamp(t *testing.T) {
	g := NewGroup(1, 2)
	if got := g.ObserveLookahead(0); got != MinLookahead {
		t.Fatalf("zero-latency link clamped to %v, want %v", got, MinLookahead)
	}
	if got := g.ObserveLookahead(MinLookahead / 2); got != MinLookahead {
		t.Fatalf("sub-minimum link clamped to %v, want %v", got, MinLookahead)
	}
	if g.Lookahead() != MinLookahead {
		t.Fatalf("group lookahead = %v, want %v", g.Lookahead(), MinLookahead)
	}
	if got := g.ObserveLookahead(time.Millisecond); got != time.Millisecond {
		t.Fatalf("legal lookahead altered: %v", got)
	}
}

// TestLookaheadViolationPanics: a delivery timed inside the current
// window is a conservative-synchronization bug and must be loud.
func TestLookaheadViolationPanics(t *testing.T) {
	g := NewGroup(1, 2)
	g.SingleThreaded = true
	g.ObserveLookahead(100 * time.Microsecond)
	a, b := g.Shard(0), g.Shard(1)
	a.Spawn("bad", func(p *Proc) {
		// Claims zero propagation on a link that declared 100µs.
		a.SendRemote(b, a.Now(), 1, 1, func() {})
		p.Sleep(time.Millisecond)
	})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on lookahead violation")
		}
	}()
	_ = g.Run()
}

// TestGroupRunUntilAlignsClocks: after RunUntil every shard sits at
// exactly t, like standalone RunUntil.
func TestGroupRunUntilAlignsClocks(t *testing.T) {
	g := NewGroup(3, 4)
	g.SingleThreaded = true
	g.Shard(2).After(time.Millisecond, func() {})
	if err := g.RunUntil(Time(5 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	for i, s := range g.Shards() {
		if s.Now() != Time(5*time.Millisecond) {
			t.Fatalf("shard %d clock %v, want 5ms", i, s.Now())
		}
	}
}

// TestGroupDeadlock: parked foreground procs with empty queues must be
// reported, with names from every shard.
func TestGroupDeadlock(t *testing.T) {
	g := NewGroup(9, 2)
	g.SingleThreaded = true
	g.Shard(0).Spawn("stuck0", func(p *Proc) { p.Park() })
	g.Shard(1).Spawn("stuck1", func(p *Proc) { p.Park() })
	err := g.Run()
	if err == nil {
		t.Fatal("no deadlock error")
	}
	for _, name := range []string{"stuck0", "stuck1"} {
		if !contains(err.Error(), name) {
			t.Fatalf("deadlock error %q missing %s", err, name)
		}
	}
}

// TestGroupDeadline: runaway daemon timers hit the virtual deadline.
func TestGroupDeadline(t *testing.T) {
	g := NewGroup(5, 2)
	g.SingleThreaded = true
	g.Deadline = Time(10 * time.Millisecond)
	g.Shard(1).Every(time.Millisecond, func() {})
	g.Shard(0).Spawn("waiter", func(p *Proc) { p.Park() })
	if err := g.Run(); err == nil || !contains(err.Error(), "deadline") {
		t.Fatalf("want deadline error, got %v", err)
	}
}

// TestGroupStop: Stop from inside an event halts at the next barrier.
func TestGroupStop(t *testing.T) {
	g := NewGroup(5, 2)
	fired := 0
	g.Shard(1).After(time.Millisecond, func() { fired++; g.Stop() })
	g.Shard(0).Spawn("waiter", func(p *Proc) { p.Park() })
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("stop event fired %d times", fired)
	}
}

// TestGroupedSimRejectsRun: shard sims must be driven by the Group.
func TestGroupedSimRejectsRun(t *testing.T) {
	g := NewGroup(1, 2)
	if err := g.Shard(1).Run(); err == nil {
		t.Fatal("shard Run did not error")
	}
	if err := g.Shard(0).RunUntil(10); err == nil {
		t.Fatal("shard RunUntil did not error")
	}
}

// TestStreamStability: named streams depend only on (seed, name), and
// Draws reads the same values from any shard, from a standalone sim and
// from math/rand itself, whatever it drew before.
func TestStreamStability(t *testing.T) {
	draw := func(s *Sim, name string, from int) int64 {
		var v [1]int64
		s.Draws(StreamSeed(s.Seed(), name), from, v[:])
		return v[0]
	}
	g := NewGroup(77, 4)
	a := draw(g.Shard(0), "host.alpha", 0)
	if b := draw(g.Shard(3), "host.alpha", 0); a != b {
		t.Fatalf("same name on different shards diverged: %d vs %d", a, b)
	}
	solo := New(77)
	if s := draw(solo, "host.alpha", 0); a != s {
		t.Fatalf("grouped stream differs from standalone: %d vs %d", a, s)
	}
	if other := draw(solo, "host.beta", 0); other == a {
		t.Fatal("distinct names produced the same stream")
	}
	src := rand.NewSource(StreamSeed(77, "host.alpha"))
	for i := range 700 {
		want := src.Int63()
		if got := draw(solo, "host.alpha", i); got != want {
			t.Fatalf("draw %d: got %d, want %d", i, got, want)
		}
		draw(solo, "host.beta", i%5) // the scratch source keeps nothing between calls
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
