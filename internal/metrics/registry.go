package metrics

import (
	"slices"
	"strconv"
	"strings"
	"time"
)

// Kind distinguishes instrument types in snapshots.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the exposition name of the kind.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// instrument is one registered metric: its scope, its literal leaf name
// and what it reads, a *Counter, a *Histogram, a gauge's func() int64
// or the *gaugeSet it is one of.
// The full name is built at snapshot time (Registry.resolve).
type instrument struct {
	scope *Scope
	leaf  string
	ref   any
}

// blockSize is how many instruments one storage block holds. Blocks are
// never reallocated, so registering copies nothing.
const blockSize = 512

// Registry holds the full instrument tree for one simulation. It is not
// safe for concurrent use — the simulation is single-threaded, and the
// registry inherits that model.
type Registry struct {
	blocks []*[blockSize]instrument
	n      int // instruments registered
	hists  int // of which histograms

	// The name cache, 8 bytes per instrument beyond the name bytes: every
	// final name in one buffer, in registration order, instrument i's at
	// names[ends[i]:ends[i+1]]; and the registration indices in snapshot
	// order. It is built again whenever a registration has left it short.
	names string
	ends  []uint32
	order []int32

	snaps uint64 // snapshots taken: a gauge set fills once per snapshot
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Scope returns a scope rooted at name (dotted-path prefix, e.g.
// "host.alpha").
func (r *Registry) Scope(name string) *Scope {
	if r == nil {
		return nil
	}
	return &Scope{reg: r, name: name}
}

// register appends an instrument to the current block, starting a new
// block when it is full.
func (r *Registry) register(ins instrument) {
	if r.n%blockSize == 0 {
		r.blocks = append(r.blocks, new([blockSize]instrument))
	}
	r.blocks[r.n/blockSize][r.n%blockSize] = ins
	r.n++
	if _, ok := ins.ref.(*Histogram); ok {
		r.hists++
	}
}

// at returns the instrument registered idx-th.
func (r *Registry) at(idx int) *instrument { return &r.blocks[idx/blockSize][idx%blockSize] }

// name returns the final name of the instrument registered idx-th.
func (r *Registry) name(idx int32) string { return r.names[r.ends[idx]:r.ends[idx+1]] }

// resolve returns the registration indices in snapshot order, building
// the name cache if a registration has left it short. A name is the
// scope's dotted path, a dot and the leaf; a name an earlier
// registration already holds gets the first free suffix (#2, #3, ...),
// in registration order, so two same-named subsystems cannot silently
// share or clobber an entry.
func (r *Registry) resolve() []int32 {
	if len(r.order) == r.n {
		return r.order
	}
	total := 0
	for i := 0; i < r.n; i++ {
		ins := r.at(i)
		total += ins.scope.pathLen() + 1 + len(ins.leaf)
	}
	var b strings.Builder
	b.Grow(total)
	r.ends, r.order = make([]uint32, r.n+1), make([]int32, r.n)
	for i := range r.order {
		ins := r.at(i)
		ins.scope.writePath(&b)
		b.WriteByte('.')
		b.WriteString(ins.leaf)
		r.ends[i+1], r.order[i] = uint32(b.Len()), int32(i)
	}
	r.names = b.String()
	r.sortOrder()
	for i := 1; i < r.n; i++ {
		if r.name(r.order[i]) == r.name(r.order[i-1]) {
			r.suffixDuplicates()
			r.sortOrder()
			break
		}
	}
	return r.order
}

// sortOrder sorts the registration indices by (name, index).
func (r *Registry) sortOrder() {
	slices.SortFunc(r.order, func(a, b int32) int {
		if c := strings.Compare(r.name(a), r.name(b)); c != 0 {
			return c
		}
		return int(a - b)
	})
}

// suffixDuplicates renames, in registration order, every name an
// earlier registration already took to the first free name#k, and lays
// the buffer out again.
func (r *Registry) suffixDuplicates() {
	taken := make(map[string]bool, r.n)
	all := make([]string, r.n)
	for i := range all {
		base, name := r.name(int32(i)), r.name(int32(i))
		for k := 2; taken[name]; k++ {
			name = base + "#" + strconv.Itoa(k)
		}
		taken[name], all[i] = true, name
	}
	r.names = strings.Join(all, "")
	for i, name := range all {
		r.ends[i+1] = r.ends[i] + uint32(len(name))
	}
}

// Scope is a named subtree of a registry. A nil *Scope is valid and
// inert: every method returns a nil instrument or does nothing, so
// subsystems hold a scope pointer and never test whether metrics are
// enabled.
type Scope struct {
	reg    *Registry
	parent *Scope
	name   string // the root's dotted prefix, or one path element
}

// Sub returns a child scope ("kern" under "host.alpha" names
// "host.alpha.kern.*").
func (s *Scope) Sub(name string) *Scope {
	if s == nil {
		return nil
	}
	return &Scope{reg: s.reg, parent: s, name: name}
}

// pathLen is the length of the scope's full dotted path.
func (s *Scope) pathLen() int {
	if s.parent == nil {
		return len(s.name)
	}
	return s.parent.pathLen() + 1 + len(s.name)
}

// writePath writes the scope's full dotted path to b.
func (s *Scope) writePath(b *strings.Builder) {
	if s.parent != nil {
		s.parent.writePath(b)
		b.WriteByte('.')
	}
	b.WriteString(s.name)
}

// Counter binds an existing counter (typically a Stats struct field)
// into the registry under the scope.
func (s *Scope) Counter(name string, c *Counter) {
	if s == nil || c == nil {
		return
	}
	s.reg.register(instrument{scope: s, leaf: name, ref: c})
}

// NewCounter creates, registers, and returns a counter (nil when the
// scope is nil — safe to use unconditionally).
func (s *Scope) NewCounter(name string) *Counter {
	if s == nil {
		return nil
	}
	c := &Counter{}
	s.Counter(name, c)
	return c
}

// GaugeFunc registers a gauge evaluated at snapshot time. fn must be
// deterministic for a given simulation state; it costs nothing until a
// snapshot is taken.
func (s *Scope) GaugeFunc(name string, fn func() int64) {
	if s == nil || fn == nil {
		return
	}
	s.reg.register(instrument{scope: s, leaf: name, ref: fn})
}

// gaugeSet is gauges that one fill call reads. Its instruments are
// registered back to back from first, so instrument idx reads
// vals[idx-first] as filled for snapshot snap.
type gaugeSet struct {
	fill  func([]int64)
	first int
	snap  uint64
	vals  []int64
}

// Gauges registers one gauge per name, evaluated at snapshot time by a
// single fill call that writes every value (vals[i] for names[i]) — one
// walk of the state where a GaugeFunc per name would make one each.
// fill runs once per snapshot, and must be deterministic for a given
// simulation state. A name may hold dots ("tcp_state.closed").
func (s *Scope) Gauges(names []string, fill func(vals []int64)) {
	if s == nil || fill == nil {
		return
	}
	set := &gaugeSet{fill: fill, first: s.reg.n, vals: make([]int64, len(names))}
	for _, name := range names {
		s.reg.register(instrument{scope: s, leaf: name, ref: set})
	}
}

// Histogram creates, registers, and returns a histogram (nil when the
// scope is nil, making Observe free). Its buckets are allocated by its
// first sample.
func (s *Scope) Histogram(name string) *Histogram {
	if s == nil {
		return nil
	}
	h := &Histogram{}
	s.reg.register(instrument{scope: s, leaf: name, ref: h})
	return h
}

// Item is one instrument's value in a snapshot.
type Item struct {
	Name  string    `json:"name"`
	Kind  string    `json:"kind"`
	Value int64     `json:"value"`
	Hist  *HistView `json:"hist,omitempty"`
}

// Snapshot is the registry's state at one instant of virtual time,
// sorted by name. All renderings of a snapshot are byte-stable.
type Snapshot struct {
	At    time.Duration `json:"at_ns"`
	Items []Item        `json:"items"`
}

// Snapshot captures every instrument, sorted by name. at is the virtual
// time of the capture.
func (r *Registry) Snapshot(at time.Duration) Snapshot {
	if r == nil {
		return Snapshot{At: at}
	}
	order := r.resolve()
	r.snaps++
	s := Snapshot{At: at, Items: make([]Item, len(order))}
	views := make([]HistView, r.hists)
	for i, idx := range order {
		it := &s.Items[i]
		it.Name = r.name(idx)
		switch ref := r.at(int(idx)).ref.(type) {
		case *Counter:
			it.Kind, it.Value = KindCounter.String(), int64(ref.Value())
		case *Histogram:
			views[0] = ref.View()
			it.Kind, it.Hist, it.Value = KindHistogram.String(), &views[0], int64(views[0].Count)
			views = views[1:]
		case func() int64:
			it.Kind, it.Value = KindGauge.String(), ref()
		case *gaugeSet:
			if ref.snap != r.snaps {
				ref.fill(ref.vals)
				ref.snap = r.snaps
			}
			it.Kind, it.Value = KindGauge.String(), ref.vals[int(idx)-ref.first]
		}
	}
	return s
}

// Sum adds the values of every item whose name ends in suffix — the
// cross-host aggregation helper ("how many TIME_WAIT sockets exist
// anywhere" is Sum(".tcp_state.time_wait")).
func (s Snapshot) Sum(suffix string) int64 { return s.SumUnder("", suffix) }

// SumUnder adds the values of every item whose name starts with prefix
// and ends in suffix — one host's total over all its stacks is
// SumUnder("host.<name>.", ".sock_copied_bytes").
func (s Snapshot) SumUnder(prefix, suffix string) int64 {
	var total int64
	for _, it := range s.Items {
		if strings.HasPrefix(it.Name, prefix) && strings.HasSuffix(it.Name, suffix) {
			total += it.Value
		}
	}
	return total
}

// Get returns the item with the exact name, if present.
func (s Snapshot) Get(name string) (Item, bool) {
	for _, it := range s.Items {
		if it.Name == name {
			return it, true
		}
	}
	return Item{}, false
}

// MergedHistogram merges every live histogram whose name ends in suffix
// into a fresh histogram (for cross-stack quantiles, e.g. connect
// latency over all hosts). Names are the snapshot's: a suffixed
// duplicate ("x.connect_ns#2") does not end in ".connect_ns".
func (r *Registry) MergedHistogram(suffix string) *Histogram {
	if r == nil {
		return nil
	}
	out := &Histogram{}
	for _, idx := range r.resolve() {
		if h, ok := r.at(int(idx)).ref.(*Histogram); ok && strings.HasSuffix(r.name(idx), suffix) {
			out.Merge(h)
		}
	}
	return out
}
