package filter

import (
	"fmt"
	"slices"
)

// Filter is an installed packet filter: a validated program plus delivery
// metadata. Owner is opaque to this package; the kernel stores the
// delivery endpoint there.
type Filter struct {
	ID       int
	Prog     Program
	Spec     MatchSpec // informational
	Priority int       // higher priority filters are consulted first
	Owner    any

	// Set when Prog is what Compile emits for some spec: that spec in
	// test order, and the next filter with the same tests.
	indexed bool
	tup     tuple
	next    *Filter
}

// order is match order: higher priority first, ties by installation.
func order(f, g *Filter) int {
	if f.Priority != g.Priority {
		return g.Priority - f.Priority
	}
	return f.ID - g.ID
}

// Set is an ordered collection of installed filters, as maintained by the
// simulated kernel for one network interface.
//
// The kernel being modelled runs the installed programs one after the
// other until one accepts. The simulator does not: programs that Compile
// produced are recognised at Install (SpecOf) and answered from an index
// over their 5-tuples (index.go); only the others — the catch-all,
// hand-written programs — still run in the VM. Every output is that of
// the sequential walk all the same; walk below is that specification,
// the tests' oracle, and the fallback where the index is not exact.
type Set struct {
	filters []*Filter // every installed filter, in match order
	opaque  []*Filter // those the index does not hold, in match order
	byID    map[int]*Filter
	nextID  int
	instrs  int // total instructions installed

	index    map[prefixKey]node
	indexed  int          // filters in the index
	untested [nFields]int // how many of them do not test field i

	// Runs counts Match calls; Steps counts the programs the modelled
	// kernel runs for them (the winner's position in match order, Len on
	// a miss), not the programs the simulator ran: the demultiplexing
	// cost of the sequential walk, exposed to the benchmarks.
	Runs  int
	Steps int
}

// NewSet returns an empty filter set.
func NewSet() *Set {
	return &Set{nextID: 1, byID: make(map[int]*Filter), index: make(map[prefixKey]node)}
}

// Install validates prog and adds it to the set. Higher-priority filters
// match first; ties break by installation order. spec is recorded, not
// trusted: whether the index can hold prog is read off prog itself.
func (s *Set) Install(prog Program, spec MatchSpec, priority int, owner any) (*Filter, error) {
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("filter: install rejected: %w", err)
	}
	f := &Filter{ID: s.nextID, Prog: prog, Spec: spec, Priority: priority, Owner: owner}
	s.nextID++
	s.byID[f.ID] = f
	s.instrs += len(prog)
	s.filters = slices.Insert(s.filters, rank(s.filters, f), f)
	if m, ok := SpecOf(prog); ok {
		f.indexed, f.tup = true, m.tuple()
		s.reindex(f, 1)
	} else {
		s.opaque = slices.Insert(s.opaque, rank(s.opaque, f), f)
	}
	return f, nil
}

// Remove uninstalls the filter with that ID, reporting whether it was there.
func (s *Set) Remove(id int) bool {
	f, ok := s.byID[id]
	if !ok {
		return false
	}
	delete(s.byID, id)
	s.instrs -= len(f.Prog)
	i := rank(s.filters, f)
	s.filters = slices.Delete(s.filters, i, i+1)
	if f.indexed {
		s.reindex(f, -1)
	} else {
		i := rank(s.opaque, f)
		s.opaque = slices.Delete(s.opaque, i, i+1)
	}
	return true
}

// rank is where f is, or belongs, in fs, a slice in match order.
func rank(fs []*Filter, f *Filter) int {
	i, _ := slices.BinarySearchFunc(fs, f, order)
	return i
}

// Len returns the number of installed filters.
func (s *Set) Len() int { return len(s.filters) }

// Match returns what running the installed programs in match order over
// pkt returns: the first accepting filter (or nil) and the high-water
// mark of bytes examined by the programs run up to and including it.
// The kernel reports the examined count only on the flight recorder
// (Arg1 of EvFilterMatch/EvFilterMiss); what it charges for delivery is
// priced by payload length.
func (s *Set) Match(pkt []byte) (match *Filter, examined int) {
	s.Runs++
	match, examined, steps, exact := s.classify(pkt)
	if !exact {
		match, examined, steps = s.walk(pkt)
	}
	s.Steps += steps
	return match, examined
}

// walk is the modelled kernel's demultiplexer, literally: run every
// program in match order until one accepts.
func (s *Set) walk(pkt []byte) (match *Filter, examined, steps int) {
	for _, f := range s.filters {
		steps++
		ok, ex := f.Prog.Run(pkt)
		examined = max(examined, ex)
		if ok {
			return f, examined, steps
		}
	}
	return nil, examined, steps
}

// classify computes walk's answer from the index plus the opaque
// programs the walk would reach. The winner and steps are always right;
// exact says whether examined is. The descent reports the bytes examined
// by all indexed programs, the walk only by those up to the winner. The
// two agree when every indexed program is ahead of the winner (a miss,
// or the usual catch-all below the session filters), or when what the
// walk is known to have read — the opaque programs run here, the winner
// itself if indexed — already reaches the descent's mark, as a
// port-qualified session filter (38 bytes, the furthest a compiled
// program reads) always does. Left over is a port-less or opaque winner
// with indexed programs behind it that read further: Match walks.
func (s *Set) classify(pkt []byte) (match *Filter, examined, steps int, exact bool) {
	d := descent{s: s, pkt: pkt}
	if s.indexed > 0 {
		d.run()
	}
	match = d.best
	ran := 0 // opaque programs that ran and rejected
	for _, f := range s.opaque {
		if d.best != nil && order(d.best, f) < 0 {
			break
		}
		ok, ex := f.Prog.Run(pkt)
		examined = max(examined, ex)
		if ok {
			match = f
			break
		}
		ran++
	}
	if match == nil {
		return nil, max(examined, d.examined), len(s.filters), true
	}
	r := rank(s.filters, match)
	visited := r - ran // indexed programs up to and including the winner
	if match.indexed {
		visited++
		examined = max(examined, match.tup.reach)
	}
	exact = visited == s.indexed || d.examined <= examined
	return match, max(examined, d.examined), r + 1, exact
}
