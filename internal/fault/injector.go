package fault

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/sim"
)

// Injector makes fault decisions for every link of one network segment.
// Links are identified by name and materialize on first use; each gets
// a PRNG stream derived from (simulation seed, link name) so decisions
// are bit-reproducible and independent across links.
type Injector struct {
	sim      *sim.Sim
	seed     int64
	defaults *Rates // replaced, never written through, by each set
	links    map[string]*link
	order    []string // link creation order, for stable reports
	parts    []*Partition
}

type link struct {
	name      string
	rng       *rand.Rand
	rates     *Rates // nil: use the injector default; replaced, never written through, by each set
	down      bool
	downUntil sim.Time // end of the latest open down window; forever if held down
	c         Counters
}

// NewInjector returns an idle injector drawing per-link seeds from s.
func NewInjector(s *sim.Sim) *Injector {
	return &Injector{sim: s, seed: s.Seed(), defaults: &Rates{}, links: make(map[string]*link)}
}

// link materializes per-link state. The stream seed depends only on the
// sim seed and the name, never on creation order or traffic.
func (in *Injector) link(name string) *link {
	l, ok := in.links[name]
	if !ok {
		l = &link{name: name, rng: rand.New(rand.NewSource(streamSeed(in.seed, name)))}
		in.links[name] = l
		in.order = append(in.order, name)
	}
	return l
}

// streamSeed mixes the simulation seed with a link name into an
// independent stream seed. It is sim.StreamSeed: a link's stream
// depends only on (seed, name), never on creation order, traffic, or
// which shard the link's segment landed on — which is what keeps fault
// decisions identical when a topology is resharded.
func streamSeed(seed int64, name string) int64 { return sim.StreamSeed(seed, name) }

// Prime materializes per-link state up front. Trunk segments call it at
// attach time: their two directions make fault decisions from different
// shards, so the lazily-grown link map must be complete before the
// simulation starts.
func (in *Injector) Prime(names ...string) {
	for _, n := range names {
		in.link(n)
	}
}

// SetDefaultRates installs the rates used by links with no override.
func (in *Injector) SetDefaultRates(r Rates) { in.defaults = &r }

// DefaultRates returns the injector-wide rates.
func (in *Injector) DefaultRates() Rates { return *in.defaults }

// SetLinkRates overrides the rates for one link.
func (in *Injector) SetLinkRates(name string, r Rates) { in.link(name).rates = &r }

// ClearLinkRates removes a per-link override.
func (in *Injector) ClearLinkRates(name string) { in.link(name).rates = nil }

// SetDown forces a link down (all its traffic lost, both directions)
// until it is set back up, or brings it up, closing any open down window.
func (in *Injector) SetDown(name string, down bool) {
	l := in.link(name)
	l.down, l.downUntil = down, 0
	if down {
		l.downUntil = math.MaxInt64
	}
}

// Down reports whether a link is administratively down.
func (in *Injector) Down(name string) bool { return in.link(name).down }

// Partition cuts all traffic between group a and group b (both
// directions) until the returned handle is healed. Traffic within a
// group, or involving links in neither group, is unaffected. Partitions
// stack: traffic is cut if any active partition separates the pair.
type Partition struct {
	in     *Injector
	a, b   map[string]bool
	active bool
}

// Partition installs a partition between the two link groups.
func (in *Injector) Partition(a, b []string) *Partition {
	p := &Partition{in: in, a: nameSet(a), b: nameSet(b), active: true}
	in.parts = append(in.parts, p)
	return p
}

func nameSet(names []string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// Heal removes the partition. Healing twice is a no-op.
func (p *Partition) Heal() {
	if !p.active {
		return
	}
	p.active = false
	live := p.in.parts[:0]
	for _, q := range p.in.parts {
		if q.active {
			live = append(live, q)
		}
	}
	p.in.parts = live
}

// HealAll removes every active partition.
func (in *Injector) HealAll() {
	for _, p := range in.parts {
		p.active = false
	}
	in.parts = nil
}

// Partitioned reports whether an active partition separates two links.
func (in *Injector) Partitioned(x, y string) bool {
	for _, p := range in.parts {
		if p.active && ((p.a[x] && p.b[y]) || (p.b[x] && p.a[y])) {
			return true
		}
	}
	return false
}

func (l *link) effective(def *Rates) Rates {
	if l.rates != nil {
		return *l.rates
	}
	return *def
}

// Outbound decides the fate of one frame serialized onto the medium by
// the named link. corruptibleBits is the size in bits of the region a
// corruption may touch (0 disables corruption for this frame). All
// random draws come from the link's own stream, in a fixed order, so
// the decision sequence for a link depends only on the seed and that
// link's own traffic.
func (in *Injector) Outbound(linkName string, corruptibleBits int) Decision {
	l := in.link(linkName)
	l.c.Frames++
	d := Decision{CorruptBit: -1}
	if l.down {
		l.c.DownDrops++
		d.Drop = true
		return d
	}
	r := l.effective(in.defaults)
	if r.IsZero() {
		return d
	}
	if r.Drop > 0 && l.rng.Float64() < r.Drop {
		l.c.Dropped++
		d.Drop = true
		return d
	}
	if r.Dup > 0 && l.rng.Float64() < r.Dup {
		l.c.Duplicated++
		d.Dup = true
	}
	if r.Corrupt > 0 && corruptibleBits > 0 && l.rng.Float64() < r.Corrupt {
		l.c.Corrupted++
		d.CorruptBit = l.rng.Intn(corruptibleBits)
	}
	if r.Reorder > 0 && l.rng.Float64() < r.Reorder {
		l.c.Reordered++
		by := r.ReorderBy
		if by == 0 {
			by = DefaultReorderBy
		}
		d.Delay += by
	}
	d.Delay += r.Delay
	if r.Jitter > 0 {
		d.Delay += time.Duration(l.rng.Int63n(int64(r.Jitter)))
	}
	if d.Delay > 0 {
		l.c.Delayed++
	}
	return d
}

// Cut reports whether delivery from one link to another is suppressed
// by a partition or by the receiver being down, counting the loss.
// (A down sender never reaches Cut: Outbound already dropped the frame.)
func (in *Injector) Cut(from, to string) bool {
	if in.link(to).down {
		in.link(to).c.DownDrops++
		return true
	}
	if in.Partitioned(from, to) {
		in.link(from).c.PartDrops++
		return true
	}
	return false
}

// CutTx is Cut with single-writer counter attribution: every loss is
// counted on the sending link. Trunk segments use it because their two
// directions run on different shards — Cut's receiver-side DownDrops
// increment would be a cross-shard write.
func (in *Injector) CutTx(from, to string) bool {
	if in.link(to).down {
		in.link(from).c.DownDrops++
		return true
	}
	if in.Partitioned(from, to) {
		in.link(from).c.PartDrops++
		return true
	}
	return false
}

// Links returns the names of all links seen so far, in creation order.
func (in *Injector) Links() []string { return append([]string(nil), in.order...) }

// Counters returns a copy of one link's fault counters.
func (in *Injector) Counters(name string) Counters { return in.link(name).c }
