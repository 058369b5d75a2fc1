package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/costs"
	"repro/internal/kern"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/socketapi"
	"repro/internal/wire"
)

// TestCloseMigrationAllocBudget: a library Close with a 16 KiB reply
// still unacknowledged hands the session back to the OS server by
// reference. The socket the server imports into is the library's own,
// whose storage travels in the blob, and the blob in the crossing's
// reused record: a close allocates no socket and no copy of the reply
// (24 B measured; 776 B while the import allocated a socket).
func TestCloseMigrationAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are not meaningful")
	}
	s := sim.New(1)
	s.Deadline = sim.Time(time.Minute)
	seg := simnet.NewSegment(s)
	a := New(kern.NewHost(s, seg, "A", wire.MAC{1}, wire.IP(10, 0, 0, 1), costs.DECLibrarySHMIPF()), costs.DECServerUX())
	b := New(kern.NewHost(s, seg, "B", wire.MAC{2}, wire.IP(10, 0, 0, 2), costs.DECLibrarySHMIPF()), costs.DECServerUX())
	sink, lib := b.NewLibrary("sink"), a.NewLibrary("backend")
	peer := socketapi.SockAddr{Addr: wire.IP(10, 0, 0, 2), Port: 9}
	const reply, rounds = 16 << 10, 16

	s.SpawnDaemon("sink", func(p *sim.Proc) {
		ls, _ := sink.Socket(p, socketapi.SockStream)
		sink.Bind(p, ls, socketapi.SockAddr{Port: peer.Port})
		sink.Listen(p, ls, 4)
		for {
			fd, _, err := sink.Accept(p, ls)
			if err != nil {
				return
			}
			s.SpawnDaemon("sink.conn", func(p *sim.Proc) {
				buf := make([]byte, 4096)
				for {
					if n, err := sink.Recv(p, fd, buf, 0); err != nil || n == 0 {
						sink.Close(p, fd)
						return
					}
				}
			})
		}
	})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun: count the run's allocations alone
	var closeBytes uint64
	s.Spawn("backend", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond)
		data := make([]byte, reply)
		var before, after runtime.MemStats
		for i := range rounds + 1 { // the first round warms the pools
			fd, _ := lib.Socket(p, socketapi.SockStream)
			lib.SetSockOpt(p, fd, socketapi.SoSndBuf, reply)
			if err := lib.Connect(p, fd, peer); err != nil {
				t.Error(err)
				return
			}
			if n, err := lib.Send(p, fd, data, 0); n != reply || err != nil {
				t.Errorf("send = %d, %v", n, err)
				return
			}
			e, _ := lib.Lookup(fd)
			if e.Sock.Writable() {
				t.Error("the send buffer drained before the close")
			}
			runtime.ReadMemStats(&before)
			if err := lib.Close(p, fd); err != nil {
				t.Error(err)
			}
			runtime.ReadMemStats(&after)
			if i > 0 {
				closeBytes += after.TotalAlloc - before.TotalAlloc
			}
			p.Sleep(time.Second) // the sink drains it and both ends finish closing
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	perClose := closeBytes / rounds
	t.Logf("%d heap bytes per close", perClose)
	if perClose > 64 {
		t.Errorf("a close with %d bytes unacked allocates %d heap bytes, want <= 64", reply, perClose)
	}
	if r := a.Server.Returns.Value(); r != rounds+1 {
		t.Errorf("%d sessions returned to the server, want %d", r, rounds+1)
	}
}

// connAllocBudget is what one warm connection between two libraries may
// allocate, in objects: 21.34 measured, rounded up (29.34 while every
// import allocated its socket, 57.38 while every migration allocated its
// blob and every control crossing a closure).
const connAllocBudget = 22

// TestConnectionAllocBudget: once warm, a whole connection between two
// libraries — socket, connect, accept, a 256-byte echo, the close at
// both ends and the teardown the OS servers run after it — allocates at
// most connAllocBudget objects. A migration allocates only what is new:
// the session's endpoint, filter and receive thread. The socket travels
// with its blob, the blob in a reused crossing record, and no crossing
// builds a closure or a result.
func TestConnectionAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are not meaningful")
	}
	s := sim.New(1)
	s.Deadline = sim.Time(time.Hour)
	seg := simnet.NewSegment(s)
	a := New(kern.NewHost(s, seg, "A", wire.MAC{1}, wire.IP(10, 0, 0, 1), costs.DECLibrarySHMIPF()), costs.DECServerUX())
	b := New(kern.NewHost(s, seg, "B", wire.MAC{2}, wire.IP(10, 0, 0, 2), costs.DECLibrarySHMIPF()), costs.DECServerUX())
	echo, client := b.NewLibrary("echo"), a.NewLibrary("client")
	peer := socketapi.SockAddr{Addr: wire.IP(10, 0, 0, 2), Port: 7}
	// Warm past 2MSL, so that every table holds as many sessions as it
	// will while the rounds are measured.
	const msg, warm, rounds = 256, 80, 32

	s.SpawnDaemon("echo", func(p *sim.Proc) {
		ls, _ := echo.Socket(p, socketapi.SockStream)
		echo.Bind(p, ls, socketapi.SockAddr{Port: peer.Port})
		echo.Listen(p, ls, 4)
		buf := make([]byte, msg)
		for {
			fd, _, err := echo.Accept(p, ls)
			if err != nil {
				return
			}
			for {
				n, err := echo.Recv(p, fd, buf, 0)
				if err != nil || n == 0 {
					break
				}
				echo.Send(p, fd, buf[:n], 0)
			}
			echo.Close(p, fd)
		}
	})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun: count the run's allocations alone
	var before, after runtime.MemStats
	s.Spawn("client", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond)
		data, buf := make([]byte, msg), make([]byte, msg)
		for i := range warm + rounds {
			if i == warm {
				runtime.ReadMemStats(&before)
			}
			fd, _ := client.Socket(p, socketapi.SockStream)
			if err := client.Connect(p, fd, peer); err != nil {
				t.Error(err)
				return
			}
			client.Send(p, fd, data, 0)
			for got := 0; got < msg; {
				n, err := client.Recv(p, fd, buf, 0)
				if err != nil || n == 0 {
					t.Errorf("echo ended after %d bytes: %v", got, err)
					return
				}
				got += n
			}
			client.Close(p, fd)
			p.Sleep(time.Second) // both ends finish closing
		}
		runtime.ReadMemStats(&after)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	perConn := float64(after.Mallocs-before.Mallocs) / rounds
	t.Logf("%.2f allocations per connection", perConn)
	if perConn > connAllocBudget {
		t.Errorf("a connection allocates %.2f objects, want <= %d", perConn, connAllocBudget)
	}
}
