package filter

import "time"

// Verdict is a data-plane hook's decision about a frame.
type Verdict int

const (
	// VerdictPass continues normal processing with the frame as it
	// arrived.
	VerdictPass Verdict = iota
	// VerdictDrop discards the frame.
	VerdictDrop
	// VerdictAbsorb consumes the frame: the hook handled it itself
	// (answered it, forwarded it out another path), so the host stack
	// never sees it. Distinct from Drop only in accounting.
	VerdictAbsorb
)

func (v Verdict) String() string {
	switch v {
	case VerdictPass:
		return "pass"
	case VerdictDrop:
		return "drop"
	case VerdictAbsorb:
		return "absorb"
	}
	return "verdict(?)"
}

// Hook is the kernel's stateful data-plane extension point on the
// receive path. Where an installed filter Program is a pure predicate
// that picks a delivery endpoint, a Hook may keep state across frames
// (connection tracking), rewrite frames (NAT), and originate frames of
// its own (load-balancer hairpins) — the position netfilter/eBPF occupy
// in a modern kernel. It sees received frames only: locally-originated
// frames go straight out.
//
// The cost/act split exists because the kernel charges virtual CPU
// before effects occur: IngressCost is evaluated first and charged at
// interrupt priority, then Take runs when the charge completes.
// IngressCost must be cheap, and neither writes the frame nor mutates
// hook state.
//
// Take is handed a frame that is the hook's: it may rewrite it and
// transmit it (a forward), and on Drop or Absorb the kernel forgets it.
// A frame the hook passes goes up the receive path as it arrived, so a
// passing hook has not written it.
type Hook interface {
	IngressCost(frame []byte) time.Duration
	Take(frame []byte) Verdict
}

// Chain is an ordered rule chain evaluated by a data-plane hook — the
// VM glue between the stateless filter machine and the stateful plane.
// It is a Set at one priority, so match order is append order, whose
// owners are the verdicts. The modelled hook runs every program until
// one accepts, netfilter-style, so the traversal cost is linear in the
// total instruction count; Instructions is exactly that upper bound (a
// frame matching no rule walks the whole chain), which the plane prices
// and the chain-length benchmarks measure. What the simulator spends is
// the set's business: its index answers compiled rules, and its Runs
// and Steps count evaluations and the programs the modelled walk runs.
type Chain struct{ set *Set }

// NewChain returns an empty rule chain.
func NewChain() *Chain { return &Chain{set: NewSet()} }

// Append validates prog and adds it to the end of the chain, returning
// the rule's ID.
func (c *Chain) Append(prog Program, v Verdict) (int, error) {
	f, err := c.set.Install(prog, MatchSpec{}, 0, v)
	if err != nil {
		return 0, err
	}
	return f.ID, nil
}

// Remove deletes the rule with the given ID, reporting whether it was
// present.
func (c *Chain) Remove(id int) bool { return c.set.Remove(id) }

// Len returns the number of installed rules.
func (c *Chain) Len() int { return c.set.Len() }

// Instructions returns the total instruction count across the chain —
// the unit the per-instruction cost model multiplies.
func (c *Chain) Instructions() int { return c.set.instrs }

// Eval returns the verdict of the first rule, in append order, whose
// program accepts pkt. matched is false when no rule accepted (the
// caller applies its chain policy, typically pass).
func (c *Chain) Eval(pkt []byte) (v Verdict, matched bool) {
	m, _ := c.set.Match(pkt)
	if m == nil {
		return VerdictPass, false
	}
	return m.Owner.(Verdict), true
}
