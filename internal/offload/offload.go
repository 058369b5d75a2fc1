// Package offload simulates a NIC offload engine: the fourth receive
// architecture of the reproduction (Library-SHM-IPF-OFFLOAD).
//
// The paper's arc — IPC, then SHM, then SHM-IPF — wins at each step by
// removing one copy or one wakeup per packet from the software path.
// This engine takes the next step the follow-on literature argues for
// ("the NIC should be part of the OS"): it moves per-packet work onto
// the device itself, so the software cost that remains is charged per
// super-segment instead of per wire frame.
//
// Four offloads, all deterministic on the virtual clock:
//
//   - TSO/GSO transmit segmentation: the stack hands one oversized
//     frame per send (header template + payload) and the engine slices
//     it into MSS-sized wire frames, patching sequence numbers, IP IDs,
//     lengths, and flags, and computing each slice's checksum.
//   - LRO receive coalescing: in-order TCP data segments of one flow
//     are merged into a single super-segment before the packet filter,
//     ring, and wakeup path run, so their fixed per-packet costs —
//     including the receiver wakeup — are paid once per merge. A merge
//     flushes when it reaches MaxCoalesce, when the flow goes quiet for
//     the hold window, or at a stream boundary (FIN, RST, SYN, URG,
//     options, a sequence gap).
//   - Checksum offload: every TCP/UDP frame is checksummed on transmit
//     and verified on receive by the engine; the stack skips its
//     software pass. Frames that fail verification are dropped here,
//     preserving end-to-end protection against injected corruption.
//   - Adaptive interrupt moderation (NAPI-like): the engine tracks the
//     inter-arrival EWMA. When idle, a PSH segment flushes its merge
//     immediately, so request/response latency never pays a hold
//     window. Under load, PSH segments merge like any other data and
//     delivery batches up to MaxCoalesce — the moderation trade every
//     NIC makes, bounded here by the hold window after the last
//     arrival.
//
// Engine work is charged as virtual time on the engine's own transmit
// and receive pipelines — not on the host CPU, which is the point of
// offloading — and metered into the metrics registry so it stays
// visible next to the software components.
package offload

import (
	"time"

	"repro/internal/costs"
	"repro/internal/mbuf"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// The engine's fixed parameters. The wire runs at 0.8 µs/byte, so
// full-size frames arrive ~1.2 ms apart; the hold window must span a few arrivals to coalesce
// anything, and the idle threshold must sit above the steady-state gap
// so ping-pong traffic never waits.
const (
	DefaultMSS = 1460
	// DefaultMaxCoalesce caps merged payload per super-segment. 32 MSS
	// stays well under the IPv4 TotalLen limit and, at wire rate, bounds
	// the accumulation a delivery can be deferred by.
	DefaultMaxCoalesce = 32 * DefaultMSS
	// DefaultHold is the quiet period after the last arrival that
	// flushes an open merge (the moderation timer).
	DefaultHold    = 2500 * time.Microsecond
	DefaultIdleGap = 3 * time.Millisecond // EWMA gap above which the engine is idle

	// DefaultTSOMax is the largest super-segment payload a stack hands
	// the engine when it is attached (stack.Config.Offload).
	DefaultTSOMax = 8 * DefaultMSS
)

// Config assembles an engine between a host's receive path and its NIC.
type Config struct {
	Sim  *sim.Sim
	Name string

	// NIC is the transmit target; the engine's sliced frames go out
	// through it.
	NIC *simnet.NIC
	// Up is the host receive path the engine delivers into (the function
	// that was the NIC's Rx callback before the engine was attached).
	Up func(f simnet.Frame)

	Costs costs.OffloadCosts
}

// Stats counts engine activity; the counters are always live and bind
// into the metrics registry via BindMetrics.
type Stats struct {
	TSOSuper  metrics.Counter // super-segments handed down by the stack
	TSOSlices metrics.Counter // wire frames sliced out of them
	TxPass    metrics.Counter // frames transmitted unsliced

	TxCsumFrames metrics.Counter // frames checksummed on transmit
	TxCsumBytes  metrics.Counter // transport bytes checksummed on transmit
	RxCsumFrames metrics.Counter // frames verified on receive
	RxCsumBytes  metrics.Counter // transport bytes verified on receive
	RxCsumBad    metrics.Counter // frames dropped for a bad checksum

	LROMerged   metrics.Counter // wire frames absorbed into a pending merge
	LROFlushes  metrics.Counter // merged super-segments delivered up
	LROBytes    metrics.Counter // payload bytes delivered in merged segments
	RxImmediate metrics.Counter // frames delivered without holding

	TxEngineNS metrics.Counter // virtual ns charged on the transmit pipeline
	RxEngineNS metrics.Counter // virtual ns charged on the receive pipeline

	// SwSlices is always 0: the engine slices every super-segment
	// itself. It is not registered; it stays only because the
	// repository's benchmark probe still adds it to TSOSlices.
	SwSlices metrics.Counter
}

// Engine is one NIC's offload pipeline.
type Engine struct {
	cfg Config

	// Pipeline clocks: engine work serializes FIFO on each direction,
	// so deliveries can never overtake each other no matter how the
	// per-frame charges vary.
	txFree sim.Time
	rxFree sim.Time

	// Adaptive moderation state.
	ewmaGap time.Duration
	lastArr sim.Time
	sawArr  bool

	// Pending LRO merges, keyed by flow; entries exist only while a
	// merge is open (bounded by concurrently-held flows, and never
	// iterated, so the map cannot perturb determinism).
	pending map[wire.Flow]*mergeBuf

	free   sim.Free[job]      // idle jobs, reused so the per-frame path schedules no closures
	merges sim.Free[mergeBuf] // flushed merge records, reused by the merges that open next
	slices [][]byte           // a super-segment's slices, reused by every TSO send

	Stats Stats
}

// mergeBuf is one in-progress LRO super-segment.
type mergeBuf struct {
	flow      wire.Flow // the table key
	buf       []byte    // frame under construction: the first frame (aliased while count is 1) + concatenated payloads
	payAt     int       // where the payload starts in buf
	count     int       // wire frames merged
	nextSeq   uint32    // expected sequence of the next mergeable frame
	lastAck   uint32    // latest cumulative ACK seen (patched in at flush)
	lastWin   uint16    // latest advertised window
	psh       bool      // a merged frame carried PSH (set on the super-segment)
	owned     bool      // buf is the engine's: an Owned opening frame, or the private merge buffer
	lastTouch sim.Time  // arrival time of the newest merged frame (hold timer base)
	gen       int       // guards the hold timer against early flushes; counts across reuses
}

// New attaches an engine. The caller re-points the NIC's Rx at
// Engine.Rx and its transmit path at Engine.Transmit.
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg, pending: make(map[wire.Flow]*mergeBuf)}
}

// BindMetrics registers the engine's counters under a scope (typically
// "host.<name>.nic.offload").
func (e *Engine) BindMetrics(sc *metrics.Scope) {
	if sc == nil {
		return
	}
	sc.Counter("tso_super", &e.Stats.TSOSuper)
	sc.Counter("tso_slices", &e.Stats.TSOSlices)
	sc.Counter("tx_pass", &e.Stats.TxPass)
	sc.Counter("tx_csum_frames", &e.Stats.TxCsumFrames)
	sc.Counter("tx_csum_bytes", &e.Stats.TxCsumBytes)
	sc.Counter("rx_csum_frames", &e.Stats.RxCsumFrames)
	sc.Counter("rx_csum_bytes", &e.Stats.RxCsumBytes)
	sc.Counter("rx_csum_bad", &e.Stats.RxCsumBad)
	sc.Counter("lro_merged", &e.Stats.LROMerged)
	sc.Counter("lro_flushes", &e.Stats.LROFlushes)
	sc.Counter("lro_bytes", &e.Stats.LROBytes)
	sc.Counter("rx_immediate", &e.Stats.RxImmediate)
	sc.Counter("tx_engine_ns", &e.Stats.TxEngineNS)
	sc.Counter("rx_engine_ns", &e.Stats.RxEngineNS)
}

// chargeTx advances the transmit pipeline clock by d and returns the
// completion time.
func (e *Engine) chargeTx(d time.Duration) sim.Time {
	now := e.cfg.Sim.Now()
	if e.txFree < now {
		e.txFree = now
	}
	e.txFree = e.txFree.Add(d)
	e.Stats.TxEngineNS.Add(uint64(d))
	return e.txFree
}

// chargeRx advances the receive pipeline clock by d and returns the
// completion time.
func (e *Engine) chargeRx(d time.Duration) sim.Time {
	now := e.cfg.Sim.Now()
	if e.rxFree < now {
		e.rxFree = now
	}
	e.rxFree = e.rxFree.Add(d)
	e.Stats.RxEngineNS.Add(uint64(d))
	return e.rxFree
}

// at schedules fn at time t (immediately if t has passed).
func (e *Engine) at(t sim.Time, fn func()) {
	d := t.Sub(e.cfg.Sim.Now())
	if d < 0 {
		d = 0
	}
	e.cfg.Sim.After(d, fn)
}

// --- Transmit path -----------------------------------------------------

// dissect is the engine's parse: wire.Dissect plus the IP header
// checksum, which the engine checks like the stack's ip_input does. ok is
// false for anything that is not plain unfragmented IPv4 TCP/UDP — those
// frames pass through the engine untouched.
func dissect(frame []byte) (wire.View, bool) {
	v, ok := wire.Dissect(frame)
	return v, ok && v.HeaderSumOK(frame)
}

// Transmit is the engine's frame entry point on the send side. Frames
// at or under the MTU get their transport checksum computed here (the
// stack skipped its software pass); oversized TCP frames are TSO
// super-segments and are sliced into MSS-sized wire frames.
func (e *Engine) Transmit(frame []byte) error {
	v, ok := dissect(frame)
	if !ok {
		e.Stats.TxPass.Inc()
		return e.cfg.NIC.Transmit(frame)
	}
	segLen := v.End - v.TPAt

	if len(frame) <= wire.EthHeaderLen+wire.EthMTU {
		// Plain frame: the stack skipped its software checksum pass.
		v.SumTransport(frame)
		e.Stats.TxPass.Inc()
		e.Stats.TxCsumFrames.Inc()
		e.Stats.TxCsumBytes.Add(uint64(segLen))
		done := e.chargeTx(e.cfg.Costs.Checksum.At(segLen))
		e.transmitAt(done, frame)
		return nil
	}

	if v.Flow.Proto != wire.ProtoTCP {
		// Only TCP is segmented; an oversized UDP frame would be a stack
		// bug (ipOutput still fragments UDP).
		return e.cfg.NIC.Transmit(frame)
	}

	// TSO: slice the super-segment into MSS-sized wire frames. The
	// stack gave the super-segment up at Transmit, so once sliced its
	// storage goes back to mbuf's pools.
	e.Stats.TSOSuper.Inc()
	slices := sliceSuper(e.slices[:0], frame, v)
	e.slices = slices
	defer clear(slices)
	mbuf.Free(frame)
	tcpHLen := v.PayAt - v.TPAt
	d := e.cfg.Costs.TxSetup.At(v.End - v.PayAt)
	for _, s := range slices {
		take := len(s) - v.PayAt
		e.Stats.TSOSlices.Inc()
		e.Stats.TxCsumFrames.Inc()
		e.Stats.TxCsumBytes.Add(uint64(tcpHLen + take))
		d += e.cfg.Costs.TxSegment.At(take) + e.cfg.Costs.Checksum.At(tcpHLen+take)
		done := e.chargeTx(d)
		d = 0
		e.transmitAt(done, s)
	}
	return nil
}

// transmitAt sends the frame out when the transmit pipeline completes
// at t.
func (e *Engine) transmitAt(t sim.Time, frame []byte) {
	j := e.getJob()
	j.f.Data = frame
	e.at(t, j.txFn)
}

// job is one scheduled continuation of the engine: a frame leaving the
// transmit pipeline, a frame reaching the host, or a merge's hold timer.
// Jobs are pooled per engine and their continuations bound once, as
// simnet's txJob and kern's rxJob are, so the per-frame path schedules no
// new closures.
type job struct {
	e    *Engine
	f    simnet.Frame
	pend *mergeBuf
	gen  int

	txFn, upFn, holdFn func()
}

func (e *Engine) getJob() *job {
	j := e.free.Get()
	if j == nil {
		j = &job{e: e}
		j.txFn, j.upFn, j.holdFn = j.tx, j.up, j.hold
	}
	return j
}

// done returns the job to the engine's free list.
func (j *job) done() {
	j.f, j.pend = simnet.Frame{}, nil
	j.e.free.Put(j)
}

func (j *job) tx() {
	e, frame := j.e, j.f.Data
	j.done()
	e.cfg.NIC.Transmit(frame)
}

func (j *job) up() {
	e, f := j.e, j.f
	j.done()
	e.cfg.Up(f)
}

// hold is the moderation timer of armHold.
func (j *job) hold() {
	e, pend, gen := j.e, j.pend, j.gen
	j.done()
	if cur := e.pending[pend.flow]; cur != pend || pend.gen != gen {
		return
	}
	if quiet := e.cfg.Sim.Now().Sub(pend.lastTouch); quiet < DefaultHold {
		e.armHold(pend, DefaultHold-quiet)
		return
	}
	e.flush(pend, e.cfg.Costs.RxFlush.At(0))
}

// sliceSuper slices a TSO super-segment into MSS-sized wire frames with
// patched IP/TCP headers and fresh checksums. The header template is the
// frame's own Ethernet+IP+TCP headers, options included; FIN/PSH ride
// only on the last slice. The slices are appended to slices.
func sliceSuper(slices [][]byte, frame []byte, v wire.View) [][]byte {
	payload := frame[v.PayAt:v.End]
	for off, idx := 0, 0; off < len(payload); idx++ {
		take := min(DefaultMSS, len(payload)-off)
		slice := mbuf.Frame(v.PayAt + take)
		copy(slice, frame[:v.PayAt])
		copy(slice[v.PayAt:], payload[off:off+take])

		sv := v.SetTotalLen(slice, len(slice)-v.IPAt)
		sv.SetID(slice, v.ID+uint16(idx))
		sv.SetSeq(slice, v.Seq+uint32(off))
		if off+take < len(payload) {
			sv.SetTCPFlags(slice, v.Flags&^(wire.TCPFin|wire.TCPPsh))
		}
		sv.SumTransport(slice)
		slices = append(slices, slice)
		off += take
	}
	return slices
}

// --- Receive path ------------------------------------------------------

// Rx is the engine's NIC receive callback: checksum verification, LRO
// coalescing, and adaptive moderation, then delivery into the host
// receive path.
func (e *Engine) Rx(f simnet.Frame) {
	now := e.cfg.Sim.Now()
	busy := e.observeArrival(now)

	v, ok := dissect(f.Data)
	if !ok {
		// Non-IP (ARP) and ICMP flow straight up; the stack validates
		// them itself.
		e.deliverNow(f)
		return
	}

	// Checksum verification on the NIC. Bad frames die here with a
	// counter, exactly as a bad software checksum would have dropped
	// them in the stack.
	segLen := v.End - v.TPAt
	e.Stats.RxCsumFrames.Inc()
	e.Stats.RxCsumBytes.Add(uint64(segLen))
	d := e.cfg.Costs.Checksum.At(segLen)
	if !v.TransportSumOK(f.Data) {
		e.Stats.RxCsumBad.Inc()
		e.chargeRx(d)
		return
	}

	if v.Flow.Proto != wire.ProtoTCP {
		e.deliverAfter(d, f)
		return
	}

	// Mergeable: data with no SYN/FIN/RST/URG and no TCP options. IP
	// options do not disqualify a segment: a merge is patched through a
	// view of the opening frame's headers, wherever they end.
	payLen := v.End - v.PayAt
	mergeable := payLen > 0 &&
		(v.Flags == wire.TCPAck || v.Flags == wire.TCPAck|wire.TCPPsh) &&
		v.PayAt-v.TPAt == wire.TCPHeaderLen

	pend := e.pending[v.Flow]

	if !mergeable {
		// Pure ACKs and boundary segments (FIN, SYN, RST, URG, options):
		// flush anything pending for this flow first so the stream stays
		// in order, then deliver.
		if pend != nil {
			e.flush(pend, e.cfg.Costs.RxFlush.At(0))
		}
		e.deliverAfter(d+e.cfg.Costs.RxMerge.At(payLen), f)
		return
	}

	d += e.cfg.Costs.RxMerge.At(payLen)
	psh := v.Flags&wire.TCPPsh != 0

	if pend != nil {
		if v.Seq != pend.nextSeq {
			// Sequence gap (loss or reordering upstream): flush what we
			// have and deliver the new frame at once, so the stack sees
			// the gap promptly and dup-ACKs.
			e.flush(pend, 0)
			e.deliverAfter(d, f)
			return
		}
		// In-order continuation: absorb. The merged super-segment is a
		// new frame that never existed on the wire, so the first
		// absorption moves the opening frame into a private buffer sized
		// for a full merge, lent by mbuf's pools; the engine owns it,
		// whoever owned the frame. An owned frame's storage goes back to
		// the pools once its bytes are in the merge; one the engine does
		// not own is only read.
		if pend.count == 1 {
			open := pend.buf
			pend.buf = append(mbuf.Frame(pend.payAt + DefaultMaxCoalesce + DefaultMSS)[:0], open...)
			if pend.owned {
				mbuf.Free(open)
			}
			pend.owned = true
		}
		pend.buf = append(pend.buf, f.Data[v.PayAt:v.End]...)
		if f.Owned {
			mbuf.Free(f.Data)
		}
		pend.count++
		pend.nextSeq += uint32(payLen)
		pend.lastAck = v.Ack
		pend.lastWin = v.Window
		pend.psh = pend.psh || psh
		pend.lastTouch = now
		e.Stats.LROMerged.Inc()
		e.chargeRx(d)
		if len(pend.buf)-pend.payAt >= DefaultMaxCoalesce || (psh && !busy) {
			// Full, or a push while idle: the sender is waiting on this
			// data, hand it up now. Under load the push merges like any
			// other byte — that deferral is the interrupt moderation.
			e.flush(pend, e.cfg.Costs.RxFlush.At(0))
		}
		return
	}

	// Open a merge with this frame as the template. Until a second frame
	// is absorbed the buffer is the frame itself, trimmed of Ethernet
	// padding: most merges on a request/response flow end as they began,
	// and a one-byte request should not cost a 48 KB buffer.
	if pend = e.merges.Get(); pend == nil {
		pend = new(mergeBuf)
	}
	*pend = mergeBuf{
		flow:      v.Flow,
		buf:       f.Data[:v.End],
		payAt:     v.PayAt,
		count:     1,
		nextSeq:   v.Seq + uint32(payLen),
		lastAck:   v.Ack,
		lastWin:   v.Window,
		psh:       psh,
		owned:     f.Owned,
		lastTouch: now,
		gen:       pend.gen, // a hold armed for its last use must still see it changed
	}
	e.pending[v.Flow] = pend
	e.Stats.LROMerged.Inc()
	e.chargeRx(d)

	if psh && !busy {
		// A single pushed segment on an idle flow is a request or a
		// response tail: no reason to hold it.
		e.flush(pend, e.cfg.Costs.RxFlush.At(0))
		return
	}
	e.armHold(pend, DefaultHold)
}

// armHold schedules the moderation timer: the merge flushes once the
// flow has been quiet for the hold window. Arrivals refresh lastTouch,
// so the timer re-arms itself until the quiet period is real; the
// generation guard kills timers that outlive their merge.
func (e *Engine) armHold(pend *mergeBuf, wait time.Duration) {
	j := e.getJob()
	j.pend, j.gen = pend, pend.gen
	e.cfg.Sim.After(wait, j.holdFn)
}

// flush delivers a pending merge, finalized if it absorbed anything; a
// merge of one frame goes up as it arrived (its checksum is verified and
// its ACK, window, PSH and ownership are its own). extra is added to the
// pipeline charge.
func (e *Engine) flush(pend *mergeBuf, extra time.Duration) {
	delete(e.pending, pend.flow)
	pend.gen++
	if pend.count > 1 {
		pend.finalize()
	}
	e.Stats.LROFlushes.Inc()
	e.Stats.LROBytes.Add(uint64(len(pend.buf) - pend.payAt))
	e.deliverAfter(extra, simnet.Frame{Data: pend.buf, Owned: pend.owned})
	pend.buf = nil
	e.merges.Put(pend)
}

// finalize makes the merged super-segment a well-formed frame: the merged
// length, the latest cumulative ACK and window, PSH if any merged frame
// pushed, and a fresh checksum.
func (pend *mergeBuf) finalize() {
	// The buffer opens with the first frame's headers, whose IP length
	// still describes that frame alone: they dissect as they did on arrival.
	v, _ := wire.Dissect(pend.buf)
	v = v.SetTotalLen(pend.buf, len(pend.buf)-v.IPAt)
	if pend.psh {
		v.SetTCPFlags(pend.buf, v.Flags|wire.TCPPsh)
	}
	v.SetAck(pend.buf, pend.lastAck)
	v.SetWindow(pend.buf, pend.lastWin)
	v.SumTransport(pend.buf)
}

// deliverNow hands a frame up with no engine charge.
func (e *Engine) deliverNow(f simnet.Frame) {
	e.Stats.RxImmediate.Inc()
	e.deliverAfter(0, f)
}

// deliverAfter hands a frame up after charging d on the receive
// pipeline (FIFO: a cheap frame never overtakes an expensive one).
func (e *Engine) deliverAfter(d time.Duration, f simnet.Frame) {
	done := e.chargeRx(d)
	j := e.getJob()
	j.f = f
	e.at(done, j.upFn)
}

// observeArrival updates the inter-arrival EWMA and reports whether the
// engine considers itself under load (poll mode).
func (e *Engine) observeArrival(now sim.Time) bool {
	if !e.sawArr {
		e.sawArr = true
		e.lastArr = now
		e.ewmaGap = DefaultIdleGap // start idle: first packets go straight up
		return false
	}
	gap := now.Sub(e.lastArr)
	e.lastArr = now
	if gap > 4*DefaultIdleGap {
		gap = 4 * DefaultIdleGap // clamp so one long silence doesn't poison the average
	}
	// EWMA with alpha = 1/4.
	e.ewmaGap = (3*e.ewmaGap + gap) / 4
	return e.ewmaGap < DefaultIdleGap
}

// PendingMerges reports the number of open LRO merges (diagnostics).
func (e *Engine) PendingMerges() int { return len(e.pending) }
