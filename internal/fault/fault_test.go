package fault

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// drawSequence records the injector's verdicts for n frames on a link.
func drawSequence(in *Injector, link string, n int) []Decision {
	out := make([]Decision, n)
	for i := range out {
		out[i] = in.Outbound(link, 1000)
	}
	return out
}

func TestStreamsAreSeedDeterministic(t *testing.T) {
	r := Rates{Drop: 0.1, Dup: 0.1, Corrupt: 0.1, Reorder: 0.1, Jitter: time.Millisecond}
	mk := func(seed int64) []Decision {
		in := NewInjector(sim.New(seed))
		in.SetDefaultRates(r)
		return drawSequence(in, "a", 500)
	}
	a, b := mk(7), mk(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at frame %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := mk(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("different seeds produced identical 500-frame decision sequences")
	}
}

func TestLinkStreamsAreIndependent(t *testing.T) {
	r := Rates{Drop: 0.2, Dup: 0.2, Corrupt: 0.2, Jitter: time.Millisecond}

	// Baseline: link "a" alone.
	in1 := NewInjector(sim.New(42))
	in1.SetDefaultRates(r)
	alone := drawSequence(in1, "a", 200)

	// Interleave heavy traffic on "b" between every "a" frame; "a"'s
	// stream must not notice.
	in2 := NewInjector(sim.New(42))
	in2.SetDefaultRates(r)
	mixed := make([]Decision, 200)
	for i := range mixed {
		drawSequence(in2, "b", 5)
		mixed[i] = in2.Outbound("a", 1000)
	}
	for i := range alone {
		if alone[i] != mixed[i] {
			t.Fatalf("link a's stream perturbed by link b traffic at frame %d", i)
		}
	}
}

func TestPartitionCutsBothDirectionsAndHeals(t *testing.T) {
	in := NewInjector(sim.New(1))
	p := in.Partition([]string{"a"}, []string{"b", "c"})
	for _, pair := range [][2]string{{"a", "b"}, {"b", "a"}, {"a", "c"}, {"c", "a"}} {
		if !in.Cut(pair[0], pair[1]) {
			t.Errorf("partition should cut %s->%s", pair[0], pair[1])
		}
	}
	if in.Cut("b", "c") {
		t.Errorf("partition cut traffic within a group")
	}
	if in.Cut("a", "d") {
		t.Errorf("partition cut traffic to an uninvolved link")
	}
	p.Heal()
	if in.Cut("a", "b") {
		t.Errorf("healed partition still cutting traffic")
	}
	if got := in.Counters("a").PartDrops; got != 2 {
		t.Errorf("a PartDrops = %d, want 2 (a->b, a->c)", got)
	}
	if got := in.Counters("b").PartDrops; got != 1 {
		t.Errorf("b PartDrops = %d, want 1", got)
	}
}

func TestDownLinkDropsAndCounts(t *testing.T) {
	in := NewInjector(sim.New(1))
	in.SetDown("a", true)
	if d := in.Outbound("a", 0); !d.Drop {
		t.Fatalf("down link transmitted")
	}
	if !in.Cut("b", "a") {
		t.Fatalf("delivery to down link not cut")
	}
	in.SetDown("a", false)
	if d := in.Outbound("a", 0); d.Drop {
		t.Fatalf("revived link still dropping")
	}
	if in.Cut("b", "a") {
		t.Fatalf("delivery to revived link still cut")
	}
	if got := in.Counters("a").DownDrops; got != 2 {
		t.Errorf("a DownDrops = %d, want 2 (one tx, one rx)", got)
	}
}

func TestRatesZeroMeansPristine(t *testing.T) {
	in := NewInjector(sim.New(3))
	for i, d := range drawSequence(in, "a", 100) {
		if d.Drop || d.Dup || d.CorruptBit >= 0 || d.Delay != 0 {
			t.Fatalf("zero-rate injector interfered with frame %d: %+v", i, d)
		}
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("@0 rates drop=0.05 dup=0.02 jitter=1ms; @2s partition a,b|c for=500ms; @3s heal; @1s down a for=200ms every=1s; @4s up a")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 5 {
		t.Fatalf("got %d events, want 5", len(p.Events))
	}
	ev := p.Events[0]
	if ev.Verb != "rates" || ev.At != 0 || ev.Rates.Drop != 0.05 || ev.Rates.Dup != 0.02 || ev.Rates.Jitter != time.Millisecond {
		t.Errorf("rates event parsed wrong: %+v", ev)
	}
	ev = p.Events[1]
	if ev.Verb != "partition" || ev.At != 2*time.Second || ev.For != 500*time.Millisecond ||
		len(ev.A) != 2 || ev.A[0] != "a" || ev.A[1] != "b" || len(ev.B) != 1 || ev.B[0] != "c" {
		t.Errorf("partition event parsed wrong: %+v", ev)
	}
	if p.Events[2].Verb != "heal" {
		t.Errorf("heal event parsed wrong: %+v", p.Events[2])
	}
	ev = p.Events[3]
	if ev.Verb != "down" || ev.Link != "a" || ev.Every != time.Second || ev.For != 200*time.Millisecond {
		t.Errorf("flap event parsed wrong: %+v", ev)
	}
	if p.Events[4].Verb != "up" || p.Events[4].Link != "a" {
		t.Errorf("up event parsed wrong: %+v", p.Events[4])
	}

	for _, bad := range []string{
		"rates drop=0.5",        // missing @time
		"@0 rates drop=2",       // probability out of range
		"@0 partition a b",      // missing |
		"@0 nonsense",           // unknown verb
		"@0 down",               // missing link
		"@x heal",               // bad time
		"@0 rates drop",         // not key=value
		"@0 rates volume=11",    // unknown key
		"@0 heal extra",         // heal takes no args
		"@0 partition |b",       // empty group
		"@0 down a for=banana",  // bad duration
		"@0 down a every=cheez", // bad period
		"@-1s heal",             // negative time
		"@0 rates delay=-1ms",   // negative delay
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted invalid input", bad)
		}
	}

	// Comments and newlines are tolerated.
	p, err = ParsePlan("# warmup\n@0 rates drop=0.1\n\n@1s heal")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 2 {
		t.Fatalf("got %d events, want 2", len(p.Events))
	}
}

// schedule arms the plan text on a fresh injector.
func schedule(t *testing.T, text string) (*sim.Sim, *Injector) {
	t.Helper()
	p, err := ParsePlan(text)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	in := NewInjector(s)
	in.Schedule(p)
	return s, in
}

// checkAt runs f at virtual time at.
func checkAt(s *sim.Sim, at time.Duration, f func()) { s.At(sim.Time(int64(at)), f) }

func TestScheduleAppliesAndReverts(t *testing.T) {
	s, in := schedule(t, "@0 rates drop=0.5; @1s partition a|b for=500ms; @2s down a for=300ms")
	checkAt(s, time.Millisecond, func() {
		if in.DefaultRates().Drop != 0.5 {
			t.Errorf("t=1ms: rates not applied")
		}
	})
	checkAt(s, 1200*time.Millisecond, func() {
		if !in.Partitioned("a", "b") {
			t.Errorf("t=1.2s: partition not active")
		}
	})
	checkAt(s, 1600*time.Millisecond, func() {
		if in.Partitioned("a", "b") {
			t.Errorf("t=1.6s: partition did not auto-heal")
		}
	})
	checkAt(s, 2100*time.Millisecond, func() {
		if !in.Down("a") {
			t.Errorf("t=2.1s: link a not down")
		}
	})
	checkAt(s, 2400*time.Millisecond, func() {
		if in.Down("a") {
			t.Errorf("t=2.4s: link a did not come back up")
		}
	})
	// Timer events are daemons; drive the clock explicitly.
	if err := s.RunFor(3 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestFlapSchedule(t *testing.T) {
	s, in := schedule(t, "@1s down a for=200ms every=1s")
	downs := 0
	s.Every(50*time.Millisecond, func() {
		if in.Down("a") {
			downs++
		}
	})
	if err := s.RunFor(4 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Down 200ms of every 1s starting at t=1s: 3 full flaps in 4s,
	// each observed by ~4 of the 50ms probes.
	if downs < 9 || downs > 15 {
		t.Errorf("observed %d down-probes, want ~12 (3 flaps x 4 probes)", downs)
	}
}

// TestPlanRevertsOnlyItsOwnEvent: a for= window that closes undoes its
// own directive and nothing a later one did. Rates set since stay in
// force; a link stays down while a later window or a bare down is open,
// until up; a window nothing overlapped still reverts.
func TestPlanRevertsOnlyItsOwnEvent(t *testing.T) {
	s, in := schedule(t, `
		@0 rates drop=0.1 for=2s; @1s rates drop=0.5
		@0 rates link=b dup=0.1 for=2s; @1s rates link=b dup=0.5
		@0 down a for=2s; @1s down a for=5s
		@0 down c; @1s down c for=1s; @4s up c
		@0 down d for=1s; @0 rates link=e jitter=1ms for=1s`)
	checkAt(s, 3*time.Second, func() {
		if got := in.DefaultRates().Drop; got != 0.5 {
			t.Errorf("t=3s: default drop = %v, want the later directive's 0.5", got)
		}
		if r := in.link("b").rates; r == nil || r.Dup != 0.5 {
			t.Errorf("t=3s: link b rates = %+v, want the later directive's dup=0.5", r)
		}
		if !in.Down("a") || !in.Down("c") {
			t.Errorf("t=3s: a down %v, c down %v; want both down", in.Down("a"), in.Down("c"))
		}
		if in.Down("d") || in.link("e").rates != nil {
			t.Errorf("t=3s: an unoverlapped window did not revert (d down %v, e rates %+v)", in.Down("d"), in.link("e").rates)
		}
	})
	checkAt(s, 5*time.Second, func() {
		if !in.Down("a") || in.Down("c") {
			t.Errorf("t=5s: a down %v (window open until 6s), c down %v (up at 4s)", in.Down("a"), in.Down("c"))
		}
	})
	checkAt(s, 6500*time.Millisecond, func() {
		if in.Down("a") {
			t.Errorf("t=6.5s: link a still down after its last window closed")
		}
	})
	if err := s.RunFor(7 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Nested windows: the inner one's close puts the outer one's rates
	// back, and the outer one's close then reverts to the rates before it.
	s, in = schedule(t, `
		@0 rates drop=0.1 for=2s; @1s rates drop=0.5 for=500ms
		@0 rates link=b drop=0.1 for=2s; @1s rates link=b drop=0.5 for=500ms`)
	checkAt(s, 1700*time.Millisecond, func() {
		if d, r := in.DefaultRates().Drop, in.link("b").rates; d != 0.1 || r == nil || r.Drop != 0.1 {
			t.Errorf("t=1.7s: default drop %v, link b rates %+v; want the outer window's drop=0.1 on both", d, r)
		}
	})
	checkAt(s, 3*time.Second, func() {
		if d, r := in.DefaultRates().Drop, in.link("b").rates; d != 0 || r != nil {
			t.Errorf("t=3s: default drop %v, link b rates %+v; want both reverted after the outer window", d, r)
		}
	})
	if err := s.RunFor(4 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestPlanAtZeroHoldsOnSchedule: a directive at @0 is in force when
// Schedule returns, before anything runs, and its every=/for= timers
// count from that moment.
func TestPlanAtZeroHoldsOnSchedule(t *testing.T) {
	s, in := schedule(t, "@0 rates drop=0.1 dup=0.2 corrupt=0.3 reorder=0.4 reorderby=3ms delay=1ms jitter=2ms; @0 down a for=200ms every=1s")
	want := Rates{Drop: 0.1, Dup: 0.2, Corrupt: 0.3, Reorder: 0.4,
		ReorderBy: 3 * time.Millisecond, Delay: time.Millisecond, Jitter: 2 * time.Millisecond}
	if got := in.DefaultRates(); got != want {
		t.Errorf("rates on Schedule = %+v, want %+v", got, want)
	}
	if !in.Down("a") {
		t.Error("link a not down on Schedule")
	}
	for _, c := range []struct {
		at   time.Duration
		down bool
	}{{100 * time.Millisecond, true}, {300 * time.Millisecond, false}, {1100 * time.Millisecond, true}, {1300 * time.Millisecond, false}, {2100 * time.Millisecond, true}} {
		checkAt(s, c.at, func() {
			if in.Down("a") != c.down {
				t.Errorf("t=%v: link a down %v, want %v", c.at, !c.down, c.down)
			}
		})
	}
	if err := s.RunFor(3 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestCountersAggregate(t *testing.T) {
	in := NewInjector(sim.New(9))
	in.SetDefaultRates(Rates{Drop: 1})
	in.Outbound("a", 0)
	in.Outbound("b", 0)
	in.Outbound("b", 0)
	var tot Counters
	for _, l := range in.Links() {
		tot.Add(in.Counters(l))
	}
	if tot.Frames != 3 || tot.Dropped != 3 {
		t.Errorf("totals = %+v, want 3 frames / 3 dropped", tot)
	}
	if got := in.Links(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Links() = %v", got)
	}
	if c := in.Counters("b"); c.Frames != 2 || c.Dropped != 2 {
		t.Errorf("link b counters = %+v, want 2 frames / 2 dropped", c)
	}
}
