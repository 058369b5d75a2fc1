package stack

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// bindMetrics binds the stack's counters into its Config.Metrics scope,
// allocates the latency histograms, and registers population gauges
// (sockets, per-TCP-state counts) that are evaluated only at snapshot
// time by walking the live socket tables — the netstat model of reading
// kernel state, with no per-transition bookkeeping on the hot path.
func (st *Stack) bindMetrics(sc *metrics.Scope) {
	if sc == nil {
		return
	}
	s := &st.Stats
	sc.Counter("ip_in", &s.IPIn)
	sc.Counter("ip_out", &s.IPOut)
	sc.Counter("ip_frags_out", &s.IPFragsOut)
	sc.Counter("ip_reasm_ok", &s.IPReasmOK)
	sc.Counter("ip_reasm_timeout", &s.IPReasmTimeout)
	sc.Counter("tcp_in", &s.TCPIn)
	sc.Counter("tcp_out", &s.TCPOut)
	sc.Counter("tcp_pure_acks", &s.TCPPureAcks)
	sc.Counter("tcp_rexmit", &s.TCPRexmit)
	sc.Counter("tcp_fast_rexmit", &s.TCPFastRexmit)
	sc.Counter("tcp_dup_acks", &s.TCPDupAcks)
	sc.Counter("tcp_delayed_acks", &s.TCPDelayedAcks)
	sc.Counter("udp_in", &s.UDPIn)
	sc.Counter("udp_out", &s.UDPOut)
	sc.Counter("udp_no_port", &s.UDPNoPort)
	sc.Counter("icmp_in", &s.ICMPIn)
	sc.Counter("icmp_out", &s.ICMPOut)
	sc.Counter("checksum_errors_ip", &s.IPChecksumErrors)
	sc.Counter("checksum_errors_tcp", &s.TCPChecksumErrors)
	sc.Counter("checksum_errors_udp", &s.UDPChecksumErrors)
	sc.Counter("checksum_errors_icmp", &s.ICMPChecksumErrors)
	sc.Counter("drops", &s.Drops)
	sc.Counter("sock_copied_bytes", &s.SockCopiedBytes)
	sc.Counter("sock_aliased_bytes", &s.SockAliasedBytes)
	sc.Counter("splice_ops", &s.SpliceOps)
	sc.Counter("splice_bytes", &s.SpliceBytes)
	sc.Counter("zc_rx_bytes", &s.ZeroCopyRxBytes)
	sc.Counter("selective_copy_bytes", &s.SelectiveCopyBytes)
	sc.Counter("sw_checksum_bytes", &s.SwChecksumBytes)
	sc.Counter("tso_sends", &s.TSOSends)

	st.mRTT = sc.Histogram("rtt_ns")
	st.mConnect = sc.Histogram("connect_ns")
	st.mCwnd = sc.Histogram("cwnd_bytes")

	sc.Gauges(gaugeNames[:], func(v []int64) {
		v[0], v[1] = int64(s.ChecksumErrors()), int64(len(st.socks))
		states := v[2:]
		clear(states)
		for _, sk := range st.socks {
			if sk.Proto != wire.ProtoTCP {
				continue
			}
			if sk.tcb == nil {
				states[tcpClosed]++
			} else {
				states[sk.tcb.state]++
			}
		}
	})
}

// gaugeNames names the stack's gauges, one set read by one socket walk:
// checksum_errors, sockets, and tcp_state.<state> for each of
// tcpStateNames in lower case, built once rather than per stack.
var gaugeNames = func() (names [2 + len(tcpStateNames)]string) {
	names[0], names[1] = "checksum_errors", "sockets"
	for i, s := range tcpStateNames {
		names[2+i] = "tcp_state." + strings.ToLower(s)
	}
	return names
}()

// SocketInfo is one row of the netstat-style socket table.
type SocketInfo struct {
	Stack  string `json:"stack"` // which stack instance owns the socket
	Proto  string `json:"proto"` // "tcp" or "udp"
	Local  Addr   `json:"local"`
	Remote Addr   `json:"remote"`
	State  string `json:"state"` // TCP state; "-" for UDP
	RecvQ  int    `json:"recv_q"`
	SendQ  int    `json:"send_q"`
	// Chain-API activity on this socket (lifetime byte counts).
	SplicedBytes  int64 `json:"spliced_bytes"`  // moved through Splice (as source or sink)
	ZeroCopyRx    int64 `json:"zc_rx_bytes"`    // returned as RecvPeek aliased views
	SelectiveCopy int64 `json:"sel_copy_bytes"` // materialized by CopyRanges specs
}

// SocketTable reads the live socket tables into a deterministic,
// sorted per-socket view (protocol, then local address, then remote
// address, then creation order).
func (st *Stack) SocketTable() []SocketInfo {
	socks := slices.Clone(st.socks)
	sort.Slice(socks, func(i, j int) bool {
		a, b := socks[i], socks[j]
		if a.Proto != b.Proto {
			return a.Proto < b.Proto
		}
		if au, bu := a.local.IP.Uint32(), b.local.IP.Uint32(); au != bu {
			return au < bu
		}
		if a.local.Port != b.local.Port {
			return a.local.Port < b.local.Port
		}
		if au, bu := a.remote.IP.Uint32(), b.remote.IP.Uint32(); au != bu {
			return au < bu
		}
		if a.remote.Port != b.remote.Port {
			return a.remote.Port < b.remote.Port
		}
		return a.uid < b.uid
	})
	out := make([]SocketInfo, 0, len(socks))
	for _, sk := range socks {
		info := SocketInfo{
			Stack:         st.cfg.Name,
			Local:         sk.local,
			Remote:        sk.remote,
			SplicedBytes:  sk.splicedBytes,
			ZeroCopyRx:    sk.zcRxBytes,
			SelectiveCopy: sk.selCopyBytes,
		}
		switch sk.Proto {
		case wire.ProtoTCP:
			info.Proto = "tcp"
			info.State = TCPStateOf(sk)
			if sk.rcv != nil {
				info.RecvQ = sk.rcv.len()
			}
			if sk.snd != nil {
				info.SendQ = sk.snd.len()
			}
		case wire.ProtoUDP:
			info.Proto = "udp"
			info.State = "-"
			if sk.drcv != nil {
				info.RecvQ = sk.drcv.len()
			}
		}
		out = append(out, info)
	}
	return out
}
