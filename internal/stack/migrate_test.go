package stack

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

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
// allocates no buffer for it: an export into the caller's blob and an
// import allocate the importing socket alone, 704 B with its buffers and
// control block.
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
		if perOp > 768 {
			t.Errorf("an export+import with 16 KiB queued allocates %d heap bytes, want <= 768", perOp)
		}
		if s.snd.len() != 16<<10 {
			t.Errorf("after %d migrations the send queue holds %d bytes, want %d", rounds+1, s.snd.len(), 16<<10)
		}
	})
}
