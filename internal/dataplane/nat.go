package dataplane

import "repro/internal/wire"

// applyXlate rewrites frame (which v describes) in place per x:
// Ethernet addresses, the 5-tuple, and a TTL decrement like any
// forwarding middlebox, every checksum updated incrementally by the wire
// setters. Returns false when the TTL expired (caller drops).
func (p *Plane) applyXlate(frame []byte, v wire.View, x *xlate) bool {
	if v.TTL <= 1 {
		return false
	}
	v.SetTTL(frame, v.TTL-1)
	v.SetFlow(frame, x.to)
	eh := wire.EthHeader{Dst: x.dstMAC, Src: p.cfg.LocalMAC, Type: wire.EtherTypeIPv4}
	eh.Marshal(frame)
	return true
}

// buildRST assembles a checksummed RST segment of flow fl from scratch.
func (p *Plane) buildRST(dstMAC wire.MAC, fl wire.Flow, seq, ack uint32, flags uint8) []byte {
	const ipAt, tpAt = wire.EthHeaderLen, wire.EthHeaderLen + wire.IPv4HeaderLen
	frame := make([]byte, tpAt+wire.TCPHeaderLen)
	eh := wire.EthHeader{Dst: dstMAC, Src: p.cfg.LocalMAC, Type: wire.EtherTypeIPv4}
	eh.Marshal(frame)

	th := wire.TCPHeader{SrcPort: fl.SrcPort, DstPort: fl.DstPort, Seq: seq, Ack: ack, Flags: flags}
	tb := frame[tpAt:]
	th.Marshal(tb)
	th.Checksum = wire.TCPChecksum(fl.Src, fl.Dst, tb)
	th.Marshal(tb)

	ih := wire.IPv4Header{
		TotalLen: uint16(wire.IPv4HeaderLen + wire.TCPHeaderLen),
		TTL:      wire.DefaultTTL,
		Proto:    wire.ProtoTCP,
		Src:      fl.Src,
		Dst:      fl.Dst,
	}
	ih.Marshal(frame[ipAt:tpAt])
	return frame
}

// synthRST builds a well-formed RST segment toward a flow's initiator —
// the load balancer's way of terminating an established connection whose
// backend died. The sequence number is the initiator's rcv_nxt (its
// latest cumulative ACK), so its TCP accepts the reset immediately.
func (p *Plane) synthRST(f *flow) []byte {
	// From the VIP identity, to the client.
	return p.buildRST(f.clientMAC, f.orig.Reverse(), f.clientAck, f.clientEndSeq, wire.TCPRst|wire.TCPAck)
}

// synthRSTBackend is the mirror reset toward the flow's backend, sent
// from the SNAT identity the backend has been talking to. NAT preserves
// the client's sequence space, so the backend's rcv_nxt is the highest
// client seq forwarded (clientEndSeq).
func (p *Plane) synthRSTBackend(f *flow) []byte {
	return p.buildRST(f.fwd.dstMAC, f.fwd.to, f.clientEndSeq, 0, wire.TCPRst)
}
