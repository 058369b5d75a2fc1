package core

import (
	"repro/internal/metrics"
	"repro/internal/stack"
)

// bindMetrics binds the OS server's core-layer counters and population
// gauges under cs (e.g. "host.alpha.core"); the stacks bind their own
// when they are built.
func (srv *Server) bindMetrics(cs *metrics.Scope) {
	if cs == nil {
		return
	}
	cs.Counter("migrations", &srv.Migrations)
	cs.Counter("returns", &srv.Returns)
	cs.Counter("orphans_aborted", &srv.OrphansAborted)
	cs.Counter("frag_forwards", &srv.FragForwards)
	cs.Counter("sessions_made", &srv.SessionsMade)
	cs.Counter("sessions_reaped", &srv.SessionsReaped)
	cs.Counter("conn_setup", &srv.ConnSetups)
	cs.Counter("conn_teardown", &srv.ConnTeardowns)
	cs.Counter("port_reserves", &srv.Ports.Reserves)
	cs.Counter("port_releases", &srv.Ports.Releases)
	cs.GaugeFunc("sessions", func() int64 { return int64(len(srv.sessions)) })
	cs.GaugeFunc("ports_in_use", func() int64 { return int64(srv.Ports.Active()) })
}

// Stacks returns every stack instance in the system — the OS server's
// first, then each library's in creation order — for netstat-style
// socket-table walks (each stack's rows carry its own name).
func (sys *System) Stacks() []*stack.Stack {
	out := []*stack.Stack{sys.Server.St.Stack}
	for _, lib := range sys.Server.libs {
		out = append(out, lib.St)
	}
	return out
}
