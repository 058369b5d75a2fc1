// Package fault is a deterministic fault-injection layer for the
// simulated network. It decides, frame by frame, whether traffic is
// dropped, duplicated, corrupted, reordered, delayed, or cut off by a
// partition — reproducibly.
//
// Determinism is the design center: every link (network attachment)
// draws from its own PRNG stream derived from the simulation seed and
// the link's name, so
//
//   - the same seed replays the exact same fault sequence, and
//   - faults on one link never perturb the random stream of another,
//     which means independently configured faults compose without
//     changing each other's outcomes.
//
// A Plan is the description of faults: a schedule of events over
// virtual time ("2% loss from the start", "partition hosts a/b at t=2s
// for 500ms", "flap link a every second"), written in the compact text
// form ParsePlan reads. Rates, downed links and partitions are the
// injector's state, which a scheduled plan sets and reverts.
package fault

import "time"

// Rates are static fault probabilities and parameters for one link (or
// for the injector-wide default). Probabilities are in [0, 1].
type Rates struct {
	// Drop is the probability a frame is lost after serialization.
	Drop float64
	// Dup is the probability a frame is delivered twice.
	Dup float64
	// Corrupt is the probability a single bit of the frame (past the
	// link header) is flipped. The frame is still delivered; the
	// receiving stack's checksums are expected to discard it.
	Corrupt float64
	// Reorder is the probability a frame is held for ReorderBy after
	// serialization, letting later traffic overtake it. A zero
	// ReorderBy with nonzero Reorder means DefaultReorderBy.
	Reorder   float64
	ReorderBy time.Duration
	// Delay is a fixed extra latency added to every frame; Jitter adds
	// a uniform random component in [0, Jitter).
	Delay  time.Duration
	Jitter time.Duration
}

// DefaultReorderBy is the hold time applied to reordered frames when
// Rates.ReorderBy is zero: a few frame times on the simulated 10 Mb/s
// Ethernet, enough for later traffic to overtake.
const DefaultReorderBy = 2 * time.Millisecond

// IsZero reports whether r injects nothing.
func (r Rates) IsZero() bool { return r == Rates{} }

// Counters tally fault decisions on one link. Frames counts every frame
// offered to the injector; the rest count what was done to them.
type Counters struct {
	Frames     int // frames evaluated on this link
	Dropped    int // lost to Drop
	Duplicated int // delivered twice
	Corrupted  int // delivered with a flipped bit
	Reordered  int // held ReorderBy
	Delayed    int // delivered with any nonzero extra delay
	DownDrops  int // lost because the link was down (either end)
	PartDrops  int // deliveries suppressed by an active partition
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.Frames += o.Frames
	c.Dropped += o.Dropped
	c.Duplicated += o.Duplicated
	c.Corrupted += o.Corrupted
	c.Reordered += o.Reordered
	c.Delayed += o.Delayed
	c.DownDrops += o.DownDrops
	c.PartDrops += o.PartDrops
}

// Decision is the injector's verdict on one transmitted frame.
type Decision struct {
	// Drop loses the frame entirely (random loss or sender link down).
	Drop bool
	// Dup delivers the frame a second time.
	Dup bool
	// CorruptBit, when >= 0, is the index of a bit to flip, counted
	// from the start of the frame's corruptible region (the caller
	// decides where that region starts — typically past the link-layer
	// header, whose corruption a real NIC's CRC would catch).
	CorruptBit int
	// Delay is extra latency before delivery (reordering, fixed delay,
	// and jitter combined).
	Delay time.Duration
}
