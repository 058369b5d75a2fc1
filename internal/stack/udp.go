package stack

import (
	"repro/internal/costs"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// udpOutput emits one datagram (udp_output). The payload chain is owned
// by the call.
func (st *Stack) udpOutput(t *sim.Proc, src, dst Addr, payload *mbuf.Chain) error {
	n := payload.Len()
	st.charge(t, false, costs.CompTransportOutput, n)
	st.Stats.UDPOut.Inc()

	h := wire.UDPHeader{
		SrcPort: src.Port,
		DstPort: dst.Port,
		Length:  uint16(wire.UDPHeaderLen + n),
	}
	// Marshal with a zero checksum; the IP layer computes it during the
	// fused copy into the link frame (0 → 0xffff handled there).
	h.Marshal(payload.Prepend(wire.UDPHeaderLen))
	return st.ipOutput(t, false, wire.ProtoUDP, dst.IP, payload, n, wire.UDPChecksumOffset)
}

// udpInput delivers a received datagram to the owning socket (udp_input).
func (st *Stack) udpInput(t *sim.Proc, ih wire.IPv4Header, seg []byte) {
	st.Stats.UDPIn.Inc()
	if !st.rxVerified {
		st.Stats.SwChecksumBytes.Add(uint64(len(seg)))
		if !wire.VerifyUDPChecksum(ih.Src, ih.Dst, seg) {
			st.Stats.UDPChecksumErrors.Inc()
			if st.traceOn() {
				st.traceEmit(trace.EvChecksumDrop, "", "udp", int64(len(seg)), 0, 0)
			}
			return
		}
	}
	h, err := wire.UnmarshalUDP(seg)
	if err != nil || int(h.Length) > len(seg) {
		st.Stats.Drops.Inc()
		return
	}
	payload := seg[wire.UDPHeaderLen:h.Length]
	st.charge(t, false, costs.CompTransportInput, len(payload))

	local := Addr{IP: ih.Dst, Port: h.DstPort}
	remote := Addr{IP: ih.Src, Port: h.SrcPort}
	s := st.lookup(wire.ProtoUDP, local, remote)
	if s == nil {
		st.Stats.UDPNoPort.Inc()
		if !ih.Dst.IsBroadcast() && !st.quiet(wire.ProtoUDP, local, remote) {
			st.icmpSendUnreachable(t, wire.ICMPCodePortUnreachable, ih, seg)
		}
		return
	}
	st.charge(t, false, costs.CompMbufQueue, len(payload))
	d := st.dgrams.Get()
	if d == nil {
		d = mbuf.New()
	}
	st.rx.keep(d, payload)
	if !s.drcv.enqueue(remote, d, s.rcvbufSize) {
		st.releaseDgram(d)
		st.Stats.Drops.Inc() // receive buffer full: datagram lost
		return
	}
	s.sorwakeup(t, len(payload))
}

// releaseDgram releases a consumed datagram's chain and keeps the
// emptied chain for the next udpInput.
func (st *Stack) releaseDgram(d *mbuf.Chain) {
	d.Release()
	st.dgrams.Put(d)
}
