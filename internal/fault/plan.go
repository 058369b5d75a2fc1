package fault

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Event is one scheduled fault action.
type Event struct {
	// At is the virtual time of the first firing.
	At time.Duration
	// Every, when nonzero, repeats the event with this period.
	Every time.Duration
	// For, when nonzero, automatically reverts the event's effect after
	// this long: a partition heals, a downed link comes back up, rates
	// reset to zero.
	For time.Duration

	// Verb is one of "rates", "partition", "heal", "down", "up".
	Verb string
	// Link targets "rates" ("" means the injector-wide default) and
	// "down"/"up".
	Link string
	// A and B are the two host groups of a "partition". "heal" with
	// empty groups heals everything.
	A, B []string
	// Rates is the payload of a "rates" event.
	Rates Rates
}

// Plan is a schedule of fault events over virtual time.
type Plan struct {
	Events []Event
}

// RatesAt schedules new rates for a link ("" = injector default) at t.
func (p *Plan) RatesAt(t time.Duration, link string, r Rates) *Plan {
	p.Events = append(p.Events, Event{At: t, Verb: "rates", Link: link, Rates: r})
	return p
}

// PartitionAt schedules a partition of groups a and b at t, healing
// itself after d (0 = until healed explicitly).
func (p *Plan) PartitionAt(t, d time.Duration, a, b []string) *Plan {
	p.Events = append(p.Events, Event{At: t, For: d, Verb: "partition", A: a, B: b})
	return p
}

// HealAt schedules healing of every active partition at t.
func (p *Plan) HealAt(t time.Duration) *Plan {
	p.Events = append(p.Events, Event{At: t, Verb: "heal"})
	return p
}

// DownAt schedules link down at t, back up after d (0 = until UpAt).
func (p *Plan) DownAt(t, d time.Duration, link string) *Plan {
	p.Events = append(p.Events, Event{At: t, For: d, Verb: "down", Link: link})
	return p
}

// UpAt schedules link back up at t.
func (p *Plan) UpAt(t time.Duration, link string) *Plan {
	p.Events = append(p.Events, Event{At: t, Verb: "up", Link: link})
	return p
}

// FlapEvery schedules the link to go down for downFor every period,
// starting at t.
func (p *Plan) FlapEvery(t, period, downFor time.Duration, link string) *Plan {
	p.Events = append(p.Events, Event{At: t, Every: period, For: downFor, Verb: "down", Link: link})
	return p
}

// Schedule arms every event of the plan on the injector's simulator.
// Events fire as daemons: an armed plan never keeps Run alive. Calling
// Schedule more than once arms the plan again.
func (in *Injector) Schedule(p *Plan) {
	for i := range p.Events {
		ev := p.Events[i] // copy: the closure outlives the loop
		fire := func() { in.apply(ev) }
		if ev.Every > 0 {
			in.sim.At(in.sim.Now().Add(ev.At), func() {
				fire()
				in.sim.Every(ev.Every, fire)
			})
		} else {
			in.sim.At(in.sim.Now().Add(ev.At), fire)
		}
	}
}

func (in *Injector) apply(ev Event) {
	switch ev.Verb {
	case "rates":
		old := in.defaults
		var oldLink *Rates
		if ev.Link == "" {
			in.defaults = ev.Rates
		} else {
			oldLink = in.link(ev.Link).rates
			in.SetLinkRates(ev.Link, ev.Rates)
		}
		if ev.For > 0 {
			in.sim.After(ev.For, func() {
				if ev.Link == "" {
					in.defaults = old
				} else {
					in.link(ev.Link).rates = oldLink
				}
			})
		}
	case "partition":
		p := in.Partition(ev.A, ev.B)
		if ev.For > 0 {
			in.sim.After(ev.For, p.Heal)
		}
	case "heal":
		in.HealAll()
	case "down":
		in.SetDown(ev.Link, true)
		if ev.For > 0 {
			in.sim.After(ev.For, func() { in.SetDown(ev.Link, false) })
		}
	case "up":
		in.SetDown(ev.Link, false)
	}
}

// ParsePlan parses the compact text form of a fault plan: directives
// separated by ";" or newlines, each
//
//	@<time> [every=<dur>] [for=<dur>] <verb> [args...]
//
// where <verb> is one of
//
//	rates [link=<name>] [drop=<p>] [dup=<p>] [corrupt=<p>]
//	      [reorder=<p>] [reorderby=<dur>] [delay=<dur>] [jitter=<dur>]
//	partition <a,b,..>|<c,d,..>
//	heal
//	down <link>
//	up <link>
//
// Times and durations use Go syntax ("2s", "500ms"); "@0" is time zero.
// Examples:
//
//	@0 rates drop=0.05 dup=0.02; @2s partition a|b for=500ms
//	@1s down a for=200ms every=1s        (flap link a)
func ParsePlan(text string) (*Plan, error) {
	p := &Plan{}
	text = strings.ReplaceAll(text, "\n", ";")
	for _, raw := range strings.Split(text, ";") {
		dir := strings.TrimSpace(raw)
		if dir == "" || strings.HasPrefix(dir, "#") {
			continue
		}
		ev, err := parseDirective(dir)
		if err != nil {
			return nil, fmt.Errorf("fault plan %q: %w", dir, err)
		}
		p.Events = append(p.Events, ev)
	}
	return p, nil
}

func parseDirective(dir string) (Event, error) {
	var ev Event
	fields := strings.Fields(dir)
	if len(fields) == 0 || !strings.HasPrefix(fields[0], "@") {
		return ev, fmt.Errorf("directive must start with @<time>")
	}
	at, err := parseDur(fields[0][1:])
	if err != nil {
		return ev, fmt.Errorf("bad time %q: %v", fields[0][1:], err)
	}
	ev.At = at
	fields = fields[1:]

	// Split off the every=/for= modifiers, which may appear anywhere
	// after the time; what remains is "<verb> [args]".
	var rest []string
	for _, f := range fields {
		switch {
		case strings.HasPrefix(f, "every="):
			if ev.Every, err = parseDur(f[len("every="):]); err != nil {
				return ev, fmt.Errorf("bad every: %v", err)
			}
		case strings.HasPrefix(f, "for="):
			if ev.For, err = parseDur(f[len("for="):]); err != nil {
				return ev, fmt.Errorf("bad for: %v", err)
			}
		default:
			rest = append(rest, f)
		}
	}
	if len(rest) == 0 {
		return ev, fmt.Errorf("missing verb")
	}
	ev.Verb = rest[0]
	args := rest[1:]

	switch ev.Verb {
	case "rates":
		for _, a := range args {
			k, v, ok := strings.Cut(a, "=")
			if !ok {
				return ev, fmt.Errorf("rates arg %q is not key=value", a)
			}
			if err := setRate(&ev, k, v); err != nil {
				return ev, err
			}
		}
	case "partition":
		if len(args) != 1 {
			return ev, fmt.Errorf("partition wants one arg: <a,b>|<c,d>")
		}
		a, b, ok := strings.Cut(args[0], "|")
		if !ok {
			return ev, fmt.Errorf("partition groups must be separated by |")
		}
		ev.A, ev.B = splitGroup(a), splitGroup(b)
		if len(ev.A) == 0 || len(ev.B) == 0 {
			return ev, fmt.Errorf("partition groups must be non-empty")
		}
	case "heal":
		if len(args) != 0 {
			return ev, fmt.Errorf("heal takes no args")
		}
	case "down", "up":
		if len(args) != 1 {
			return ev, fmt.Errorf("%s wants one arg: <link>", ev.Verb)
		}
		ev.Link = args[0]
	default:
		return ev, fmt.Errorf("unknown verb %q", ev.Verb)
	}
	return ev, nil
}

func setRate(ev *Event, k, v string) error {
	prob := func(dst *float64) error {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 || f > 1 {
			return fmt.Errorf("%s=%q: want probability in [0,1]", k, v)
		}
		*dst = f
		return nil
	}
	dur := func(dst *time.Duration) error {
		d, err := parseDur(v)
		if err != nil {
			return fmt.Errorf("%s=%q: %v", k, v, err)
		}
		*dst = d
		return nil
	}
	switch k {
	case "link":
		ev.Link = v
		return nil
	case "drop":
		return prob(&ev.Rates.Drop)
	case "dup":
		return prob(&ev.Rates.Dup)
	case "corrupt":
		return prob(&ev.Rates.Corrupt)
	case "reorder":
		return prob(&ev.Rates.Reorder)
	case "reorderby":
		return dur(&ev.Rates.ReorderBy)
	case "delay":
		return dur(&ev.Rates.Delay)
	case "jitter":
		return dur(&ev.Rates.Jitter)
	}
	return fmt.Errorf("unknown rates key %q", k)
}

func splitGroup(s string) []string {
	var out []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	return out
}

// parseDur accepts Go duration syntax plus a bare "0". Every time in a
// plan runs forward: a negative one is refused.
func parseDur(s string) (time.Duration, error) {
	if s == "0" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err == nil && d < 0 {
		err = fmt.Errorf("negative duration %q", s)
	}
	return d, err
}
