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
	// For, when nonzero, reverts the event's own effect after this long:
	// its partition heals, its down window closes, and the rates in force
	// before it come back if its rates are still in force.
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

// Schedule arms every event of the plan on the injector's simulator. A
// directive at @0 takes effect at once, before Schedule returns; the
// rest fire as daemons, so an armed plan never keeps Run alive. every=
// and for= count from the first firing. Calling Schedule more than once
// arms the plan again.
func (in *Injector) Schedule(p *Plan) {
	for _, ev := range p.Events {
		start := func() {
			in.apply(ev)
			if ev.Every > 0 {
				in.sim.Every(ev.Every, func() { in.apply(ev) })
			}
		}
		if ev.At == 0 {
			start()
		} else {
			in.sim.At(in.sim.Now().Add(ev.At), start)
		}
	}
}

// apply fires one event. A for= window undoes only its own directive:
// the rates it replaced come back only while its own are in force, and
// a link it downed stays down while a later window or a bare down is
// open.
func (in *Injector) apply(ev Event) {
	switch ev.Verb {
	case "rates":
		undo := in.setRates(ev.Link, ev.Rates)
		if ev.For > 0 {
			in.sim.After(ev.For, undo)
		}
	case "partition":
		p := in.Partition(ev.A, ev.B)
		if ev.For > 0 {
			in.sim.After(ev.For, p.Heal)
		}
	case "heal":
		in.HealAll()
	case "down":
		if ev.For == 0 {
			in.SetDown(ev.Link, true)
			break
		}
		l := in.link(ev.Link)
		l.down = true
		if until := in.sim.Now().Add(ev.For); until > l.downUntil {
			l.downUntil = until
			in.sim.At(until, func() {
				if l.downUntil == until {
					l.down = false
				}
			})
		}
	case "up":
		in.SetDown(ev.Link, false)
	}
}

// setRates installs r as the default rates (name "") or as one link's,
// and returns its undo: what was in force before comes back, unless
// those rates have been set again since. Undoing the default rates
// restores their set count too, so an enclosing window's own rates are
// again the ones in force when an inner window closes.
func (in *Injector) setRates(name string, r Rates) (undo func()) {
	if name == "" {
		old, prev := in.defaults, in.defSets
		in.SetDefaultRates(r)
		mine := in.defSets
		return func() {
			if in.defSets == mine {
				in.defaults, in.defSets = old, prev
			}
		}
	}
	l := in.link(name)
	old := l.rates
	in.SetLinkRates(name, r)
	mine := l.rates
	return func() {
		if l.rates == mine {
			l.rates = old
		}
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
