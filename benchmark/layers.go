package main

import (
	"strconv"
	"strings"
	"time"

	"repro/internal/costs"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Per-layer metrics, derived from what a traced rep observed. Sources
// (README "Per-layer metrics"): R registry snapshot, L virtual-time
// ledger, S socket-call spans, H harness counts. Everything here reads
// the reference column (core) except offload.*, which reads the offload
// column, and the four per-column groups.

// sumIn totals every snapshot item whose name starts with prefix and
// ends in suffix.
func sumIn(s *metrics.Snapshot, prefix, suffix string) float64 {
	var total int64
	for _, it := range s.Items {
		if strings.HasPrefix(it.Name, prefix) && strings.HasSuffix(it.Name, suffix) {
			total += it.Value
		}
	}
	return float64(total)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// histQuantile is the q-quantile over every histogram whose name ends
// in suffix: merged exactly when the live registry is reachable,
// otherwise from the snapshot's per-histogram views.
func (o *observed) histQuantile(suffix string, q float64) float64 {
	if o.reg != nil {
		return float64(o.reg.MergedHistogram(suffix).Quantile(q))
	}
	return quantile(histViewSamples(&o.snap, suffix), q) * 1e3
}

// layerMetrics fills m with every registry-, ledger-, span- and
// recorder-derived metric of one traced rep.
func layerMetrics(m map[string]float64, wl *workload, rep *repResult, log *spanLog) {
	ref := rep.col(colCore, wl)
	if ref == nil || ref.obs == nil {
		return
	}
	o := ref.obs
	s := &o.snap
	sum := func(suffix string) float64 { return sumIn(s, "", suffix) }
	ops, conns := float64(ref.ops), float64(ref.conns)

	// simnet, fault
	frames := sum(".frames_sent")
	m["simnet.frames_per_op"] = ratio(frames, ops)
	m["simnet.drop_share"] = ratio(sum(".drops_loss")+sum(".drops_down")+sum(".drops_malformed")+sum(".partition_drops"), frames)
	m["simnet.wire_util"] = ratio(sumIn(s, "net.", "bytes_sent")*8, 10e6*ref.virt.Seconds())
	m["fault.injected_per_kframe"] = 1000 * ratio(sum(".drops_loss")+sum(".frames_dup")+sum(".frames_delayed")+sum(".frames_corrupted"), frames)

	// kern
	rx, tx := sum(".kern.rx_frames"), sum(".nic.tx_frames")
	m["kern.wakeups_per_frame"] = ratio(sum(".kern.wakeups"), rx)
	m["kern.wakeup_batch_p50"] = o.histQuantile(".kern.wakeup_batch", 0.5)
	m["kern.rx_wait_us_p50"] = o.histQuantile(".kern.rx_wait_ns", 0.5) / 1e3
	m["kern.rx_wait_us_p99"] = o.histQuantile(".kern.rx_wait_ns", 0.99) / 1e3
	m["kern.queue_depth_p99"] = o.histQuantile(".kern.queue_depth", 0.99)
	m["kern.rx_dropped_share"] = ratio(sum(".kern.rx_dropped"), rx)
	m["kern.tx_blocked_per_kframe"] = 1000 * ratio(sum(".kern.tx_blocked"), tx)

	// filter
	match := sum(".kern.filter.match")
	m["filter.match_share"] = ratio(match, match+sum(".kern.filter.miss"))
	m["filter.steal_share"] = ratio(sum(".kern.filter.steal"), match)

	// dataplane
	dpRx := sum(".dataplane.rx_frames")
	m["dataplane.rx_frames_per_op"] = ratio(dpRx, ops)
	m["dataplane.rewrites_per_frame"] = ratio(sum(".dataplane.rewrites"), dpRx)
	m["dataplane.drop_share"] = ratio(sum(".dataplane.drops"), dpRx)
	m["dataplane.ct_flows_peak"] = float64(o.ctFlowsPeak)
	m["dataplane.ct_created_per_conn"] = ratio(sum(".dataplane.ct.created"), conns)
	m["dataplane.lb_refused_share"] = ratio(sum(".dataplane.lb.refused"), sum(".dataplane.lb.conns")+sum(".dataplane.lb.refused"))

	// stack
	tcpOut := sum(".tcp_out")
	payload := float64(ref.bytes)
	m["stack.segs_per_op"] = ratio(tcpOut+sum(".udp_out"), ops)
	m["stack.pure_ack_share"] = ratio(sum(".tcp_pure_acks"), tcpOut)
	m["stack.delayed_ack_share"] = ratio(sum(".tcp_delayed_acks"), tcpOut)
	m["stack.rexmit_share"] = ratio(sum(".tcp_rexmit"), tcpOut)
	m["stack.fast_rexmit_share"] = ratio(sum(".tcp_fast_rexmit"), tcpOut)
	m["stack.dup_ack_share"] = ratio(sum(".tcp_dup_acks"), sum(".tcp_in"))
	m["stack.copied_bytes_per_byte"] = ratio(sumIn(s, o.copyHost, ".sock_copied_bytes"), payload)
	m["stack.aliased_bytes_per_byte"] = ratio(sumIn(s, o.copyHost, ".sock_aliased_bytes"), payload)
	m["stack.sw_checksum_bytes_per_byte"] = ratio(sum(".sw_checksum_bytes"), payload)
	m["stack.cwnd_kib_p50"] = o.histQuantile(".cwnd_bytes", 0.5) / 1024
	m["stack.connect_us_p50"] = o.histQuantile(".connect_ns", 0.5) / 1e3

	// core (the OS server)
	m["core.migrations_per_conn"] = ratio(sum(".core.migrations"), conns)
	m["core.returns_per_conn"] = ratio(sum(".core.returns"), conns)
	m["core.orphans_aborted_share"] = ratio(sum(".core.orphans_aborted"), sum(".core.conn_setup"))
	m["core.frag_forwards_per_kframe"] = 1000 * ratio(sum(".core.frag_forwards"), rx)

	// router
	fwd := sumIn(s, "router.", ".forwarded")
	rdrop := 0.0
	for _, c := range []string{".red_drops", ".tail_drops", ".no_route", ".ttl_expired", ".arp_drops"} {
		rdrop += sumIn(s, "router.", c)
	}
	m["router.fwd_per_op"] = ratio(fwd, ops)
	m["router.drop_share"] = ratio(rdrop, fwd+rdrop)

	m["metrics.items"] = float64(len(s.Items))

	// Virtual-time ledger (World workloads only).
	if o.hasLedger {
		l := func(comps ...costs.Component) float64 {
			var d time.Duration
			for _, c := range comps {
				d += o.ledger[c]
			}
			return us(d)
		}
		m["kern.virt_us_per_pkt"] = ratio(l(costs.CompDeviceIntrRead, costs.CompNetisrPF, costs.CompKernelCopyout, costs.CompWakeupUser), rx)
		m["stack.virt_us_per_pkt_send"] = ratio(l(costs.CompTransportOutput, costs.CompIPOutput, costs.CompEtherOutput), tx)
		m["stack.virt_us_per_pkt_recv"] = ratio(l(costs.CompMbufQueue, costs.CompIPIntr, costs.CompTransportInput), rx)
		m["socketapi.virt_us_per_pkt"] = ratio(l(costs.CompEntryCopyin), tx) + ratio(l(costs.CompCopyoutExit), rx)
	}

	// Flight recorder: the peaks no end-of-run gauge can show.
	p := recorderPeaks(o.recs)
	m["stack.time_wait_peak"] = float64(p.timeWait)
	m["core.sessions_peak"] = float64(p.sessions)
	m["core.ports_in_use_peak"] = float64(p.ports)
	m["filter.installed_peak"] = float64(p.filters)

	// Socket-call spans of the reference column.
	if log != nil {
		colSpan := 0
		for i := range log.spans {
			if sp := &log.spans[i]; sp.Layer == colCore && sp.Name == wl.name+"/"+colCore {
				colSpan = sp.ID
			}
		}
		calls := map[string][]float64{}
		n := 0
		for i := range log.spans {
			if sp := &log.spans[i]; sp.Parent == colSpan && sp.Layer == "socketapi" {
				calls[sp.Name] = append(calls[sp.Name], float64(sp.End-sp.Start)/1e3)
				n++
			}
		}
		m["socketapi.calls_per_op"] = ratio(float64(n), ops)
		for _, call := range []string{"send", "recv", "connect", "accept", "close"} {
			m["socketapi.virt_us_"+call+"_p50"] = quantile(calls[call], 0.5)
		}
	}

	// The offload column's engine.
	if off := rep.col(colOffload, wl); off != nil && off.obs != nil {
		os := &off.obs.snap
		osum := func(suffix string) float64 { return sumIn(os, "", suffix) }
		nicRx := osum(".nic.rx_frames")
		m["offload.coalesce_ratio"] = ratio(nicRx, osum(".kern.rx_frames"))
		m["offload.wakeups_per_frame"] = ratio(osum(".kern.wakeups"), nicRx)
		m["offload.sw_fallback_share"] = ratio(osum(".offload.tx_overflow")+osum(".offload.rx_overflow"), nicRx+osum(".nic.tx_frames"))
		m["offload.tso_sends_share"] = ratio(osum(".tso_sends"), osum(".tcp_out"))
	}
}

// peaks are high-water marks reconstructed from flight-recorder events.
type peaks struct {
	timeWait int // sockets in TIME_WAIT, all stacks
	sessions int // OS-server sessions, all hosts
	ports    int // distinct ports held in OS-server port tables, all hosts
	filters  int // filters installed on the busiest host
}

// recorderPeaks replays the recorder's stack and core events. A host's
// installed filters are its catch-all plus one per session currently
// migrated into an application (core.proxy installs exactly one
// endpoint and filter per migration). Ports are replayed as the port
// table refcounts them: a bind, an active open and an accepted session
// each hold their local port until the matching release.
func recorderPeaks(recs []trace.Record) peaks {
	var p peaks
	timeWait, sessions, ports := 0, 0, 0
	type portKey struct {
		host string
		port int64
	}
	portRefs := map[portKey]int{}
	hold := func(host string, port int64, d int) {
		k := portKey{host, port}
		was := portRefs[k]
		now := max(was+d, 0)
		portRefs[k] = now
		if was == 0 && now > 0 {
			ports++
			if ports > p.ports {
				p.ports = ports
			}
		} else if was > 0 && now == 0 {
			ports--
		}
	}
	type sessKey struct {
		host string
		id   int64
	}
	migrated := map[sessKey]bool{}
	perHost := map[string]int{}
	bump := func(cur int, peak *int) {
		if cur > *peak {
			*peak = cur
		}
	}
	unmigrate := func(k sessKey) {
		if migrated[k] {
			delete(migrated, k)
			perHost[k.host]--
		}
	}
	for i := range recs {
		r := &recs[i]
		switch r.Event {
		case trace.EvTCPState:
			from, to, _ := strings.Cut(r.Aux, " -> ")
			if to == "TIME_WAIT" {
				timeWait++
				bump(timeWait, &p.timeWait)
			} else if from == "TIME_WAIT" {
				timeWait--
			}
		case trace.EvSession:
			sessions++
			bump(sessions, &p.sessions)
		case trace.EvConnTeardown:
			sessions--
			unmigrate(sessKey{r.Host, r.Arg0})
		case trace.EvOrphanAbort:
			unmigrate(sessKey{r.Host, r.Arg0})
		case trace.EvPortOp:
			switch r.Aux {
			case "bind":
				hold(r.Host, r.Arg0, +1)
			case "release":
				hold(r.Host, r.Arg0, -1)
			}
		case trace.EvConnSetup:
			// Name is "ip:port>ip:port"; the local port is the first.
			local, _, _ := strings.Cut(r.Name, ">")
			if _, port, ok := strings.Cut(local, ":"); ok {
				if n, err := strconv.ParseInt(port, 10, 64); err == nil {
					hold(r.Host, n, +1)
				}
			}
		case trace.EvMigrate:
			k := sessKey{r.Host, r.Arg0}
			if r.Aux == "to-app" && !migrated[k] {
				migrated[k] = true
				perHost[k.host]++
				bump(perHost[k.host]+1, &p.filters)
			} else if r.Aux == "to-server" {
				unmigrate(k)
			}
		}
	}
	return p
}
