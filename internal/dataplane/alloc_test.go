package dataplane

import (
	"testing"

	"repro/internal/filter"
	"repro/internal/wire"
)

// establishedFlow drives one VIP connection through its handshake and
// returns the harness with a data segment each way for the flow.
func establishedFlow(t *testing.T) (h *harness, data, reply []byte) {
	t.Helper()
	h = newHarness(t, nil)
	v := h.vip(t)

	// SYN in, SYN|ACK back from whichever backend the hash picked, final
	// ACK in.
	syn := tcpFrame(clientMAC, lbMAC, clientIP, vipIP, clPort, vipPort, wire.TCPSyn, 1000, 0, nil)
	if _, verdict := h.p.Ingress(syn); verdict != filter.VerdictAbsorb {
		t.Fatalf("SYN verdict = %v, want absorb", verdict)
	}
	f := h.p.sortedFlows()[0]
	be := v.backends[f.backend]
	h.p.Ingress(tcpFrame(be.MAC, lbMAC, be.IP, lbIP, bePort, f.snat, wire.TCPSyn|wire.TCPAck, 7000, 1001, nil))
	h.p.Ingress(tcpFrame(clientMAC, lbMAC, clientIP, vipIP, clPort, vipPort, wire.TCPAck, 1001, 7001, nil))
	if h.p.StateCount(StateEstablished) != 1 {
		t.Fatalf("flow not established after handshake")
	}
	data = tcpFrame(clientMAC, lbMAC, clientIP, vipIP, clPort, vipPort,
		wire.TCPAck|wire.TCPPsh, 1001, 7001, make([]byte, 1024))
	reply = tcpFrame(be.MAC, lbMAC, be.IP, lbIP, bePort, f.snat,
		wire.TCPAck|wire.TCPPsh, 7001, 2025, make([]byte, 1024))
	return h, data, reply
}

// TestNATRewriteAllocBudget: the steady-state NAT rewrite path allocates
// nothing. Take rewrites the frame it owns in place, and the RFC 1624
// incremental fixup adds nothing: a stray per-packet allocation in
// parse, conntrack or checksum would show here. Each run copies the
// same data segment each way into reused buffers (Take rewrites them),
// and the capture buffer is reset in place so its append stays
// allocation-free.
func TestNATRewriteAllocBudget(t *testing.T) {
	h, data, reply := establishedFlow(t)
	dbuf, rbuf := make([]byte, len(data)), make([]byte, len(reply))
	got := testing.AllocsPerRun(200, func() {
		h.sent = h.sent[:0]
		copy(dbuf, data)
		copy(rbuf, reply)
		h.p.Take(dbuf)
		h.p.Take(rbuf)
	})
	if got != 0 {
		t.Fatalf("Take's NAT rewrite allocates %.2f objects/packet, want 0", got/2)
	}
	if len(h.sent) != 2 || &h.sent[0][0] != &dbuf[0] || &h.sent[1][0] != &rbuf[0] {
		t.Fatalf("Take did not hairpin the frames it was given")
	}
}

// TestIngressCopiesOncePerPacket: Ingress serves callers that keep
// their frame, so it costs exactly the copy it hands to Take.
func TestIngressCopiesOncePerPacket(t *testing.T) {
	h, data, reply := establishedFlow(t)
	got := testing.AllocsPerRun(200, func() {
		h.sent = h.sent[:0]
		h.p.Ingress(data)
		h.p.Ingress(reply)
	})
	if perPacket := got / 2; perPacket != 1 {
		t.Fatalf("Ingress allocates %.2f objects/packet, want 1 (the frame copy)", perPacket)
	}
}
