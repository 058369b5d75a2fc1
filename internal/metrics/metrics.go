// Package metrics is the deterministic metrics subsystem: counters,
// snapshot-time gauges, and log-bucketed latency histograms keyed to
// the virtual clock, collected in a hierarchical registry with
// byte-stable renderings (text, JSON, Prometheus exposition).
//
// Design constraints, in order:
//
//  1. Zero cost on the hot path when disabled, and next to none when
//     enabled. Counter is a value type embedded directly in the
//     subsystems' Stats structs, so "counting" is a plain uint64
//     increment whether or not a registry exists — exactly what the
//     ad-hoc int counters cost before. The registry binds pointers to
//     those same fields, so the counters the tests read and the counters
//     an operator scrapes can never disagree. Registering allocates
//     nothing per instrument: names are built at snapshot time and kept
//     in one buffer, at 8 bytes per instrument beyond the names, and a
//     histogram holds only the window of buckets its samples span (none
//     before the first); Observe on a nil histogram is a single nil
//     check.
//
//  2. Determinism. The simulation is single-threaded under the event
//     scheduler, so instruments need no atomics; snapshots iterate in
//     sorted name order; every rendering is byte-stable for a given
//     simulation state.
//
//  3. Snapshot-time evaluation for populations. Values that are
//     naturally "the current size of something" (sessions, ports in
//     use, sockets per TCP state, TIME_WAIT population) are registered
//     as gauge functions and cost nothing until a snapshot is taken —
//     the netstat model of reading live kernel tables.
package metrics

// Counter is a monotonically increasing event count. The zero value is
// ready to use. Methods are nil-safe so optional instruments can stay
// nil when metrics are disabled.
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}
