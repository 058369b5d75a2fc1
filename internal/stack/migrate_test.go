package stack

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/socketapi"
	"repro/internal/wire"
)

// sessionToMigrate files an ESTABLISHED socket holding every kind of
// byte a migration carries: sndN unacked send bytes, unread receive
// bytes, an out-of-order segment carrying a FIN behind a four-byte hole
// at 1006, and an urgent byte.
func sessionToMigrate(st *Stack, sndN int) *Socket {
	s, tp := makeEstablishedTCB(st, 1000)
	st.file(st.conns, tuple{wire.ProtoTCP, s.local, s.remote}, s)
	tp.iss, tp.sndUna = 5000, 5001
	tp.sndNxt = tp.sndUna + uint32(sndN)
	tp.sndMax, tp.sndWnd, tp.cwnd = tp.sndNxt, 65535, 65535
	snd := make([]byte, sndN)
	for i := range snd {
		snd[i] = byte(i * 7)
	}
	s.snd.appendBytes(snd)
	st.tcpReassemble(nil, tp, 1000, []byte("unread"), false)
	st.tcpReassemble(nil, tp, 1010, []byte("after the hole"), true)
	s.oob = []byte{'!'}
	return s
}

// queued is a copy of every byte a socket holds, as a copying migration
// would carry it.
type queued struct {
	snd, rcv, oob []byte
	reasm         []string
	wire          int // what WireSize charged before the queues moved by reference
}

func queuedOf(s *Socket) queued {
	q := queued{snd: s.snd.data.Bytes(), rcv: s.rcv.data.Bytes(), oob: bytes.Clone(s.oob)}
	q.wire = 120 + len(q.snd) + len(q.rcv) + len(q.oob)
	for _, r := range s.tcb.reasm {
		q.reasm = append(q.reasm, fmt.Sprintf("%d:%q fin=%v", r.seq, r.data.Bytes(), r.fin))
		q.wire += 8 + r.data.Len()
	}
	return q
}

func (q queued) empty() bool {
	return len(q.snd)+len(q.rcv)+len(q.oob)+len(q.reasm) == 0
}

// TestMigrationMovesBuffers: a migration moves a session's queues from
// the exporting socket into the blob and from the blob into the
// importing socket. Every byte arrives as a copying migration would
// carry it, WireSize still prices the copy, neither the exporter nor the
// imported blob keeps a reference, and a migration with 16 KiB queued
// allocates nothing: an export into the caller's blob and an import into
// the socket storage it carries allocate neither a buffer nor a socket
// (704 B while every import allocated one).
func TestMigrationMovesBuffers(t *testing.T) {
	from, to, again := testStack(t), testStack(t), testStack(t)
	s := sessionToMigrate(from.Stack, 16<<10)
	want := queuedOf(s)
	ss := new(TCPSessionState)
	if err := from.ExportTCPSession(nil, s, ss); err != nil {
		t.Fatal(err)
	}
	if got := ss.WireSize(); got != want.wire {
		t.Errorf("WireSize = %d, want %d", got, want.wire)
	}
	if left := queuedOf(s); !left.empty() {
		t.Errorf("exporter still holds %d send, %d receive, %d urgent bytes and %d out-of-order segments",
			len(left.snd), len(left.rcv), len(left.oob), len(left.reasm))
	}

	s2 := to.ImportTCPSession(nil, ss)
	got := queuedOf(s2)
	if !bytes.Equal(got.snd, want.snd) || !bytes.Equal(got.rcv, want.rcv) || !bytes.Equal(got.oob, want.oob) ||
		fmt.Sprint(got.reasm) != fmt.Sprint(want.reasm) {
		t.Errorf("imported queues differ from a copying migration: rcv %q oob %q reasm %v, want rcv %q oob %q reasm %v (send equal: %v)",
			got.rcv, got.oob, got.reasm, want.rcv, want.oob, want.reasm, bytes.Equal(got.snd, want.snd))
	}
	if n := ss.WireSize(); n != 120 {
		t.Errorf("the imported blob still holds %d bytes", n-120)
	}
	if q := queuedOf(again.ImportTCPSession(nil, ss)); !q.empty() {
		t.Errorf("a second import of one blob installed %d send and %d receive bytes", len(q.snd), len(q.rcv))
	}

	// Filling the hole delivers the out-of-order bytes, then the FIN.
	to.tcpReassemble(nil, s2.tcb, 1006, []byte("...."), false)
	if rcv := s2.rcv.data.Bytes(); string(rcv) != "unread....after the hole" || !s2.tcb.sawFin {
		t.Errorf("after the hole filled: %q, FIN seen %v", rcv, s2.tcb.sawFin)
	}

	t.Run("heap", func(t *testing.T) {
		if raceEnabled {
			t.Skip("sync.Pool drops items under -race")
		}
		st := testStack(t)
		s := sessionToMigrate(st.Stack, 16<<10)
		st.tcpReassemble(nil, s.tcb, 1006, []byte("...."), false) // no segment left to re-queue
		const rounds = 64
		var ss TCPSessionState // the caller's blob, filled and emptied by every round
		migrate := func() {
			if err := st.ExportTCPSession(nil, s, &ss); err != nil {
				t.Fatal(err)
			}
			s = st.ImportTCPSession(nil, &ss)
		}
		migrate()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun: count this goroutine's allocations alone
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for range rounds {
			migrate()
		}
		runtime.ReadMemStats(&after)
		perOp := (after.TotalAlloc - before.TotalAlloc) / rounds
		t.Logf("%d heap bytes per export+import", perOp)
		if perOp > 64 {
			t.Errorf("an export+import with 16 KiB queued allocates %d heap bytes, want <= 64", perOp)
		}
		if s.snd.len() != 16<<10 {
			t.Errorf("after %d migrations the send queue holds %d bytes, want %d", rounds+1, s.snd.len(), 16<<10)
		}
	})
}

// TestMigrationCarriesSocket: the detached socket's storage travels in
// the blob, and the import makes it a new socket of the importing
// stack — numbered by that stack, as newSocket numbers one, with
// nothing of its exported life left but the session the blob carries.
// The exporter keeps no reference to it. A released blob carries no
// storage, and neither does one exported while a thread waits on any of
// the socket's conditions: the import then allocates a socket.
func TestMigrationCarriesSocket(t *testing.T) {
	from, to := testStack(t), testStack(t)
	to.NewSocket(wire.ProtoTCP) // the importer's numbering is ahead of the exporter's
	to.NewSocket(wire.ProtoTCP)
	s := sessionToMigrate(from.Stack, 1024)
	ss := new(TCPSessionState)
	if err := from.ExportTCPSession(nil, s, ss); err != nil {
		t.Fatal(err)
	}
	for _, held := range from.socks {
		if held == s {
			t.Error("the exporter still lists the socket in socks")
		}
	}
	for _, m := range []map[tuple]*Socket{from.binds, from.conns} {
		for k, held := range m {
			if held == s {
				t.Errorf("the exporter still files the socket under %v", k)
			}
		}
	}
	// What the detached socket held of its life on the exporting stack.
	s.Notify = func() { t.Error("the imported socket called the exporter's Notify") }
	s.err, s.listener, s.oob = socketapi.ErrConnReset, from.newSocket(wire.ProtoTCP), []byte("stale")
	s.splicedBytes, s.zcRxBytes, s.selCopyBytes = 1, 2, 3
	s.closed = true

	s2 := to.ImportTCPSession(nil, ss)
	if s2 != s {
		t.Fatal("the import allocated a socket; want the storage the blob carried")
	}
	if ss.sock != nil {
		t.Error("the imported blob still carries the storage")
	}
	if s2.st != to.Stack || s2.uid != to.sockSeq || s2.uid != 3 || s2.ports != nil {
		t.Errorf("imported socket: stack %p uid %d ports %v, want the importer %p, uid 3 (its third socket), no namespace",
			s2.st, s2.uid, s2.ports, to.Stack)
	}
	if s2.Notify != nil || s2.err != nil || s2.listener != nil || string(s2.oob) != "!" || s2.closed ||
		s2.splicedBytes+s2.zcRxBytes+s2.selCopyBytes != 0 {
		t.Errorf("the exported life survived the import: notify %v, err %v, listener %v, oob %q (the blob's: \"!\"), closed %v, chain counters %d/%d/%d",
			s2.Notify != nil, s2.err, s2.listener, s2.oob, s2.closed, s2.splicedBytes, s2.zcRxBytes, s2.selCopyBytes)
	}
	if s2.snd.len() != 1024 || s2.tcb == nil || s2.tcb.sock != s2 || s2.tcb.st != to.Stack || TCPStateOf(s2) != "ESTABLISHED" {
		t.Errorf("the session did not arrive: %d send bytes, state %s", s2.snd.len(), TCPStateOf(s2))
	}
	if to.lookup(wire.ProtoTCP, s2.local, s2.remote) != s2 {
		t.Error("the importer does not demultiplex to the socket")
	}
	s2.notify() // the importer's socket has no hook yet

	t.Run("released", func(t *testing.T) {
		from, to := testStack(t), testStack(t)
		s := sessionToMigrate(from.Stack, 16)
		ss := new(TCPSessionState)
		if err := from.ExportTCPSession(nil, s, ss); err != nil {
			t.Fatal(err)
		}
		ss.Release()
		if ss.sock != nil {
			t.Fatal("Release kept the socket storage")
		}
		if to.ImportTCPSession(nil, ss) == s {
			t.Error("a released blob's import reused the storage")
		}
	})

	for _, c := range []struct {
		name string
		cond func(s *Socket) *sim.Cond
	}{
		{"accepting", func(s *Socket) *sim.Cond { return &s.accepting }},
		{"stateChanged", func(s *Socket) *sim.Cond { return &s.stateChanged }},
		{"send buffer", func(s *Socket) *sim.Cond { return &s.snd.cond }},
		{"receive buffer", func(s *Socket) *sim.Cond { return &s.rcv.cond }},
	} {
		t.Run("waited on "+c.name, func(t *testing.T) {
			from, to := testStack(t), testStack(t)
			s := sessionToMigrate(from.Stack, 16)
			cond := c.cond(s)
			from.cfg.Sim.SpawnDaemon("waiter", func(p *sim.Proc) { cond.Wait(p) })
			if err := from.cfg.Sim.RunFor(time.Millisecond); err != nil || cond.Waiters() != 1 {
				t.Fatalf("waiter not parked: %v", err)
			}
			ss := new(TCPSessionState)
			if err := from.ExportTCPSession(nil, s, ss); err != nil {
				t.Fatal(err)
			}
			if ss.sock != nil {
				t.Error("the blob carries the storage of a socket a thread waits on")
			}
			if to.ImportTCPSession(nil, ss) == s {
				t.Error("the import reused the storage of a socket a thread waits on")
			}
			if cond.Waiters() != 1 {
				t.Error("the waiter was lost")
			}
			cond.Broadcast()
			from.cfg.Sim.RunFor(time.Millisecond)
		})
	}
}
