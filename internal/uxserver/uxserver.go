// Package uxserver is the paper's server-based baseline (CMU's UX
// single server, BNR2SS): the entire protocol stack runs in one
// user-level server process, and every application socket call is a
// synchronous RPC into it.
//
// The performance character the paper measures — four data copies per
// send/receive RPC and heavyweight priority-level synchronization inside
// the server — is priced by the server column of the cost model
// (costs.DECServerUX and derivatives) as the stack runs; this package
// contributes the structure: one more address space on the path, a
// server-side network input thread at task (not interrupt) priority, and
// a bounded worker pool serving application RPCs.
package uxserver

import (
	"repro/internal/costs"
	"repro/internal/monolith"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// System is one host running a protocol server.
type System = monolith.System

// New attaches a host whose protocols are served by a user-level server.
func New(s *sim.Sim, seg *simnet.Segment, name string, mac wire.MAC, ip wire.IPAddr, prof costs.Profile) *System {
	return monolith.New(s, seg, name, mac, ip, prof, monolith.Shape{
		Owner: "uxserver", StackName: "uxstack",
		// Network input is an ordinary thread competing with the RPC
		// workers: the server is a process, which is part of why its
		// latency is worse.
		Input: "netin",
		// Blocking calls (accept, recv) occupy one worker each.
		RPC: "ux", Workers: 32,
	})
}
