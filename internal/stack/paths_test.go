package stack_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/costs"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/socketapi"
	"repro/internal/stack"
	"repro/internal/wire"
)

// The stack hands bytes to a socket buffer three ways (copy a gather
// list, alias it, move a chain) and takes them out three ways (copy to
// the caller's buffer, copy to a fresh one, peek a view and release).
// The tests below hold the three to one behaviour: what differs between
// them is who copies, never what is queued, sent or delivered.

const pathsPort = 5001

// sendModes are the three hand-overs of the send side.
var sendModes = []struct {
	name string
	send func(p *sim.Proc, st *stack.Stack, s *stack.Socket, b []byte) (int, error)
}{
	{"copy", func(p *sim.Proc, st *stack.Stack, s *stack.Socket, b []byte) (int, error) {
		return st.Send(p, s, [][]byte{b}, stack.SendOpts{})
	}},
	{"alias", func(p *sim.Proc, st *stack.Stack, s *stack.Socket, b []byte) (int, error) {
		return st.Send(p, s, [][]byte{b}, stack.SendOpts{ZeroCopy: true})
	}},
	{"chain", func(p *sim.Proc, st *stack.Stack, s *stack.Socket, b []byte) (int, error) {
		return st.SendChain(p, s, mbuf.FromBytesCopy(b), stack.SendOpts{})
	}},
}

// sendRun is what one transfer looked like from outside.
type sendRun struct {
	wire     []string      // every frame either host transmitted, with its time
	returned time.Duration // connect-to-return time of the send call
	eof      sim.Time      // when the sink saw end of stream
	got      []byte
}

// runSend connects A to B under prof, writes payload in one call of the
// given mode through an 8 KiB send buffer, closes, and reports.
func runSend(t *testing.T, prof costs.Profile, mode int, payload []byte) sendRun {
	t.Helper()
	s := sim.New(11)
	s.Deadline = sim.Time(time.Minute)
	seg := simnet.NewSegment(s)
	a := newNodeProf(s, seg, "A", 1, wire.IP(10, 0, 0, 1), prof)
	b := newNodeProf(s, seg, "B", 2, wire.IP(10, 0, 0, 2), prof)
	var r sendRun
	for _, n := range []*node{a, b} {
		name := n.st.Name()
		n.txFilter = func(frame []byte) bool {
			r.wire = append(r.wire, fmt.Sprintf("%d %s %x", s.Now(), name, frame))
			return true
		}
	}
	s.Spawn("sink", func(p *sim.Proc) {
		ls := b.st.NewSocket(wire.ProtoTCP)
		b.st.Bind(ls, stack.Addr{Port: pathsPort})
		b.st.Listen(ls, 1)
		cs, err := b.st.Accept(p, ls)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 4096)
		for {
			n, _, _, err := b.st.Recv(p, cs, buf, stack.RecvOpts{})
			if err != nil {
				t.Errorf("sink: %v", err)
				return
			}
			if n == 0 {
				break
			}
			r.got = append(r.got, buf[:n]...)
		}
		r.eof = p.Now()
		b.st.Close(p, cs)
	})
	s.Spawn("source", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		c := a.st.NewSocket(wire.ProtoTCP)
		a.st.SetOption(c, socketapi.SoSndBuf, 8192)
		if err := a.st.Connect(p, c, stack.Addr{IP: b.st.LocalIP(), Port: pathsPort}); err != nil {
			t.Error(err)
			return
		}
		t0 := p.Now()
		n, err := sendModes[mode].send(p, a.st.Stack, c, payload)
		r.returned = p.Now().Sub(t0)
		if n != len(payload) || err != nil {
			t.Errorf("%s send of %d bytes = %d, %v", sendModes[mode].name, len(payload), n, err)
		}
		a.st.Close(p, c)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSendPathsAgree: where copying is free (the NEWAPI profile) the
// three hand-overs are indistinguishable from outside — same frames at
// the same times, same completion, same bytes — and where it is not, copy
// and chain differ by the per-byte copyin charge and nothing else.
func TestSendPathsAgree(t *testing.T) {
	const mss = 1460
	plain := costs.DECKernelMach25()
	copyin := plain.Costs.TCP[costs.CompEntryCopyin]
	for _, size := range []int{0, 1, mss - 1, mss, 3*mss + 7, 20000} {
		payload := make([]byte, size)
		rand.New(rand.NewSource(int64(size))).Read(payload)

		ref := runSend(t, costs.WithNewAPI(plain), 0, payload)
		if !bytes.Equal(ref.got, payload) {
			t.Fatalf("size %d: copy path delivered %d bytes, corrupted or short", size, len(ref.got))
		}
		for mode := 1; mode < len(sendModes); mode++ {
			r := runSend(t, costs.WithNewAPI(plain), mode, payload)
			name := sendModes[mode].name
			if !bytes.Equal(r.got, payload) {
				t.Errorf("size %d: %s delivered different bytes", size, name)
			}
			if r.returned != ref.returned || r.eof != ref.eof {
				t.Errorf("size %d: %s returned after %v, EOF at %v; copy %v, %v", size, name, r.returned, r.eof, ref.returned, ref.eof)
			}
			if len(r.wire) != len(ref.wire) {
				t.Errorf("size %d: %s put %d frames on the wire, copy %d", size, name, len(r.wire), len(ref.wire))
				continue
			}
			for i := range r.wire {
				if r.wire[i] != ref.wire[i] {
					t.Errorf("size %d: %s frame %d differs from copy:\n got %.120s\nwant %.120s", size, name, i, r.wire[i], ref.wire[i])
					break
				}
			}
		}

		if size > 8192 {
			continue // the call blocks on ACKs, whose timers do not shift with it
		}
		byCopy, byChain := runSend(t, plain, 0, payload), runSend(t, plain, 2, payload)
		if got, want := byCopy.returned-byChain.returned, copyin.At(size)-copyin.At(0); got != want {
			t.Errorf("size %d: copy returns %v after chain, want the per-byte copyin charge %v", size, got, want)
		}
	}
}

// TestGatherOOBSetsOneUrgentPointer: MSG_OOB on a gather write marks the
// last byte of the call urgent — one pointer, set once the whole write is
// queued — not the last byte of every element.
func TestGatherOOBSetsOneUrgentPointer(t *testing.T) {
	w := newWorld(23)
	iov := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma!")}
	total := len("alphabetagamma!")
	var urgEnds []uint32 // seq+urp of every URG segment from A
	var firstSeq uint32
	w.a.txFilter = func(frame []byte) bool {
		ih, hl, err := wire.UnmarshalIPv4(frame[wire.EthHeaderLen:])
		if err != nil || ih.Proto != wire.ProtoTCP {
			return true
		}
		seg := frame[wire.EthHeaderLen+hl : wire.EthHeaderLen+int(ih.TotalLen)]
		th, _, err := wire.UnmarshalTCP(seg)
		if err != nil {
			return true
		}
		if th.Flags&wire.TCPSyn != 0 {
			firstSeq = th.Seq + 1
		}
		if th.Flags&wire.TCPUrg != 0 {
			urgEnds = append(urgEnds, th.Seq+uint32(th.Urgent))
		}
		return true
	}
	var oob []byte
	w.s.Spawn("server", func(p *sim.Proc) {
		ls := w.b.st.NewSocket(wire.ProtoTCP)
		w.b.st.Bind(ls, stack.Addr{Port: pathsPort})
		w.b.st.Listen(ls, 1)
		cs, err := w.b.st.Accept(p, ls)
		if err != nil {
			t.Error(err)
			return
		}
		ob := make([]byte, 8)
		n, _, _, err := w.b.st.Recv(p, cs, ob, stack.RecvOpts{OOB: true})
		if err != nil {
			t.Errorf("oob recv: %v", err)
		}
		oob = ob[:n]
	})
	w.s.Spawn("client", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		s := w.a.st.NewSocket(wire.ProtoTCP)
		if err := w.a.st.Connect(p, s, stack.Addr{IP: w.b.st.LocalIP(), Port: pathsPort}); err != nil {
			t.Error(err)
			return
		}
		if n, err := w.a.st.Send(p, s, iov, stack.SendOpts{OOB: true}); n != total || err != nil {
			t.Errorf("gather send = %d, %v", n, err)
		}
	})
	if err := w.s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(urgEnds) != 1 || urgEnds[0] != firstSeq+uint32(total) {
		t.Errorf("urgent pointers end at %v, want one, at the end of the write (%d)", urgEnds, firstSeq+uint32(total))
	}
	if string(oob) != "!" {
		t.Errorf("out-of-band data = %q, want the last byte of the call", oob)
	}
}

// recvModes are the three ways bytes leave a socket buffer. Each returns
// what one call delivered.
var recvModes = []struct {
	name string
	recv func(p *sim.Proc, st *stack.Stack, s *stack.Socket) ([]byte, stack.Addr, error)
}{
	{"copy", func(p *sim.Proc, st *stack.Stack, s *stack.Socket) ([]byte, stack.Addr, error) {
		buf := make([]byte, 64<<10)
		n, from, _, err := st.Recv(p, s, buf, stack.RecvOpts{})
		return buf[:n], from, err
	}},
	{"fresh", func(p *sim.Proc, st *stack.Stack, s *stack.Socket) ([]byte, stack.Addr, error) {
		_, from, view, err := st.Recv(p, s, nil, stack.RecvOpts{ZeroCopy: true})
		return view, from, err
	}},
	{"peek+release", func(p *sim.Proc, st *stack.Stack, s *stack.Socket) ([]byte, stack.Addr, error) {
		view, _, from, err := st.RecvPeek(p, s, 0, nil)
		if err != nil {
			return nil, from, err
		}
		b := view.Bytes()
		view.Release()
		return b, from, st.RecvRelease(p, s, len(b))
	}},
}

// transcript is what a reader saw: for a stream the bytes up to the
// first empty or failed read, for datagrams one entry per call.
type transcript struct {
	records []string
	err     error
}

func (tr transcript) String() string { return fmt.Sprintf("%q then %v", tr.records, tr.err) }

// TestRecvPathsAgree: the three receive paths deliver the same bytes and
// report end of stream, a reset, datagram boundaries and a shutdown with
// nothing queued alike.
func TestRecvPathsAgree(t *testing.T) {
	stream := make([]byte, 5000)
	rand.New(rand.NewSource(5)).Read(stream)
	scenarios := []struct {
		name string
		udp  bool
		// peer drives the far end (on A); reader is the socket on B that
		// the mode under test reads until an empty read or an error.
		peer func(p *sim.Proc, w *world, reader func() *stack.Socket)
	}{
		{"bytes-then-eof", false, func(p *sim.Proc, w *world, _ func() *stack.Socket) {
			s := connectTo(t, p, w)
			w.a.st.Send(p, s, [][]byte{stream}, stack.SendOpts{})
			w.a.st.Close(p, s)
		}},
		{"bytes-then-reset", false, func(p *sim.Proc, w *world, _ func() *stack.Socket) {
			s := connectTo(t, p, w)
			w.a.st.Send(p, s, [][]byte{stream[:100]}, stack.SendOpts{})
			p.Sleep(50 * time.Millisecond)
			w.a.st.Abort(p, s)
		}},
		{"stream-shutdown-idle", false, func(p *sim.Proc, w *world, reader func() *stack.Socket) {
			connectTo(t, p, w)
			p.Sleep(50 * time.Millisecond)
			w.b.st.Shutdown(p, reader(), socketapi.ShutRd)
		}},
		{"datagram-boundaries", true, func(p *sim.Proc, w *world, reader func() *stack.Socket) {
			s := w.a.st.NewSocket(wire.ProtoUDP)
			dst := stack.Addr{IP: w.b.st.LocalIP(), Port: pathsPort}
			for _, d := range []string{"one", "", "three and a bit"} {
				w.a.st.Send(p, s, [][]byte{[]byte(d)}, sendOptsTo(&dst))
				p.Sleep(10 * time.Millisecond)
			}
			w.b.st.Shutdown(p, reader(), socketapi.ShutRd) // then: shut down with nothing queued
		}},
	}
	for _, sc := range scenarios {
		var ref transcript
		for mode, m := range recvModes {
			w := newWorld(31)
			var rs *stack.Socket
			var got transcript
			w.s.Spawn("reader", func(p *sim.Proc) {
				rs = w.b.st.NewSocket(wire.ProtoUDP)
				if !sc.udp {
					ls := w.b.st.NewSocket(wire.ProtoTCP)
					w.b.st.Bind(ls, stack.Addr{Port: pathsPort})
					w.b.st.Listen(ls, 1)
					var err error
					if rs, err = w.b.st.Accept(p, ls); err != nil {
						t.Error(err)
						return
					}
				} else if err := w.b.st.Bind(rs, stack.Addr{Port: pathsPort}); err != nil {
					t.Error(err)
					return
				}
				var streamed []byte
				for reads := 0; ; reads++ {
					b, from, err := m.recv(p, w.b.st.Stack, rs)
					if err != nil {
						got.err = err
						break
					}
					if sc.udp {
						if len(b) == 0 && from.IsZero() {
							break // shut down with nothing queued
						}
						got.records = append(got.records, fmt.Sprintf("%v:%s", from.IP, b))
					} else if len(b) == 0 {
						break // end of stream
					}
					streamed = append(streamed, b...)
				}
				if !sc.udp {
					got.records = []string{string(streamed)}
				}
			})
			w.s.Spawn("peer", func(p *sim.Proc) {
				p.Sleep(time.Millisecond)
				sc.peer(p, w, func() *stack.Socket { return rs })
			})
			if err := w.s.Run(); err != nil {
				t.Fatalf("%s/%s: %v", sc.name, m.name, err)
			}
			if mode == 0 {
				ref = got
				continue
			}
			if got.String() != ref.String() || !errors.Is(got.err, ref.err) {
				t.Errorf("%s: %s read %.80v, copy read %.80v", sc.name, m.name, got, ref)
			}
		}
		// The reference itself must be the scenario, not three equal failures.
		switch sc.name {
		case "bytes-then-eof":
			if ref.records[0] != string(stream) || ref.err != nil {
				t.Errorf("%s: copy path read %d bytes then %v", sc.name, len(ref.records[0]), ref.err)
			}
		case "bytes-then-reset":
			if ref.records[0] != string(stream[:100]) || !errors.Is(ref.err, socketapi.ErrConnReset) {
				t.Errorf("%s: copy path read %d bytes then %v, want 100 then ECONNRESET", sc.name, len(ref.records[0]), ref.err)
			}
		case "stream-shutdown-idle":
			if ref.records[0] != "" || ref.err != nil {
				t.Errorf("%s: copy path read %v", sc.name, ref)
			}
		case "datagram-boundaries":
			if want := `["10.0.0.1:one" "10.0.0.1:" "10.0.0.1:three and a bit"] then <nil>`; ref.String() != want {
				t.Errorf("%s: copy path read %v, want %s", sc.name, ref, want)
			}
		}
	}
}

// connectTo opens a TCP connection from A to the reader on B.
func connectTo(t *testing.T, p *sim.Proc, w *world) *stack.Socket {
	s := w.a.st.NewSocket(wire.ProtoTCP)
	if err := w.a.st.Connect(p, s, stack.Addr{IP: w.b.st.LocalIP(), Port: pathsPort}); err != nil {
		t.Error(err)
	}
	return s
}
