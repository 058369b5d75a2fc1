package fault

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// FuzzParsePlan: the fault DSL is read from the command line, so any
// text must parse or be refused without a panic, and an accepted plan
// must run on a simulator the same way twice: the same verdicts for the
// same frames and the same per-link counters.
func FuzzParsePlan(f *testing.F) {
	for _, seed := range []string{
		"@0 rates drop=0.05 dup=0.02 jitter=1ms; @2s partition a,b|c for=500ms; @3s heal; @1s down a for=200ms every=1s; @4s up a",
		"@0 rates link=a corrupt=0.5 reorder=0.3 reorderby=2ms delay=1ms",
		"# warmup\n@0 rates drop=0.1\n\n@1s heal",
		"@100ms partition a|b for=300ms every=1s",
		"@-1s down b for=-2s every=-3s",
		"@0 rates delay=-1ms jitter=-1ms reorderby=-1ms reorder=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		p, err := ParsePlan(text)
		if err != nil {
			return
		}
		for _, ev := range p.Events {
			// A run's cost grows as one over the shortest period; the
			// walk below samples every millisecond.
			if ev.Every > 0 && ev.Every < time.Millisecond {
				return
			}
		}
		first := runPlan(t, p)
		if again := runPlan(t, p); !reflect.DeepEqual(first, again) {
			t.Fatalf("plan %q ran differently twice:\n%v\n%v", text, first, again)
		}
	})
}

// runPlan schedules p on a fresh simulator and samples two links' fate
// every millisecond for two virtual seconds, then reads every link's
// counters.
func runPlan(t *testing.T, p *Plan) []string {
	s := sim.New(1)
	defer s.Close()
	in := NewInjector(s)
	in.Schedule(p)
	var out []string
	s.Spawn("frames", func(pr *sim.Proc) {
		for range 2000 {
			out = append(out, fmt.Sprint(in.Outbound("a", 1000), in.Outbound("b", 1000), in.Cut("a", "b"), in.Cut("b", "c")))
			pr.Sleep(time.Millisecond)
		}
	})
	if err := s.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, l := range in.Links() {
		out = append(out, fmt.Sprint(l, in.Counters(l)))
	}
	return out
}
