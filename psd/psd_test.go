package psd_test

import (
	"bytes"
	"testing"
	"time"

	"repro/psd"
)

func TestParseIP(t *testing.T) {
	if _, err := psd.ParseIP("10.0.0.1"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "10.0.0", "10.0.0.256", "a.b.c.d", "1.2.3.4.5", "10.0.0.+1", "10.0.0.-0", "+10.0.0.1", "10. 0.0.1", "10..0.1"} {
		if _, err := psd.ParseIP(bad); err == nil {
			t.Errorf("ParseIP(%q) accepted", bad)
		}
	}
	a := psd.Addr("192.168.0.1", 80)
	if a.Port != 80 || a.Addr.String() != "192.168.0.1" {
		t.Fatalf("Addr = %v", a)
	}
	if n := testing.AllocsPerRun(100, func() { psd.ParseIP("192.168.0.1") }); n != 0 {
		t.Errorf("ParseIP allocates %v times, want 0", n)
	}
}

// TestEchoAcrossArchitectures runs the same application code on every
// architecture — the facade-level statement of the compatibility claim.
func TestEchoAcrossArchitectures(t *testing.T) {
	archs := []struct {
		name string
		a    psd.Arch
	}{
		{"decomposed", psd.Decomposed()},
		{"decomposed-ipc", psd.DecomposedIPC()},
		{"inkernel", psd.InKernel()},
		{"server", psd.ServerBased()},
	}
	for _, ac := range archs {
		ac := ac
		t.Run(ac.name, func(t *testing.T) {
			n := psd.New(5)
			hostA := n.Host("a", "10.0.0.1", ac.a)
			hostB := n.Host("b", "10.0.0.2", ac.a)
			srv := hostB.NewApp("echo")
			var got []byte
			n.Spawn("echo", func(p *psd.Thread) {
				fd, err := srv.Socket(p, psd.SockDgram)
				if err != nil {
					t.Error(err)
					return
				}
				if err := srv.Bind(p, fd, psd.SockAddr{Port: 7}); err != nil {
					t.Error(err)
					return
				}
				buf := make([]byte, 256)
				nr, from, err := srv.RecvFrom(p, fd, buf, 0)
				if err != nil {
					t.Error(err)
					return
				}
				srv.SendTo(p, fd, buf[:nr], 0, from)
			})
			cli := hostA.NewApp("cli")
			n.Spawn("cli", func(p *psd.Thread) {
				p.Sleep(time.Millisecond)
				fd, _ := cli.Socket(p, psd.SockDgram)
				if _, err := cli.SendTo(p, fd, []byte("hello"), 0, hostB.Addr(7)); err != nil {
					t.Error(err)
					return
				}
				buf := make([]byte, 256)
				nr, _, err := cli.RecvFrom(p, fd, buf, 0)
				if err != nil {
					t.Error(err)
					return
				}
				got = buf[:nr]
			})
			if err := n.Run(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, []byte("hello")) {
				t.Fatalf("echo = %q", got)
			}
		})
	}
}

func TestServerStats(t *testing.T) {
	n := psd.New(9)
	a := n.Host("a", "10.0.0.1", psd.Decomposed())
	b := n.Host("b", "10.0.0.2", psd.InKernel())
	app := a.NewApp("x")
	n.Spawn("x", func(p *psd.Thread) {
		fd, _ := app.Socket(p, psd.SockDgram)
		app.Bind(p, fd, psd.SockAddr{Port: 100})
		app.Close(p, fd)
	})
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	_, migrations, _, _ := a.ServerStats()
	if migrations != 1 {
		t.Fatalf("migrations = %d", migrations)
	}
	// Baseline hosts report zeroes.
	if s, m, r, o := b.ServerStats(); s+m+r+o != 0 {
		t.Fatal("in-kernel host has server stats")
	}
}

func TestLossySimulationStillWorks(t *testing.T) {
	n := psd.New(13)
	if err := n.ApplyFaultPlan("@0 rates drop=0.05"); err != nil {
		t.Fatal(err)
	}
	a := n.Host("a", "10.0.0.1", psd.Decomposed())
	b := n.Host("b", "10.0.0.2", psd.Decomposed())
	const total = 32 * 1024
	var received int
	srv := b.NewApp("sink")
	n.Spawn("sink", func(p *psd.Thread) {
		ls, _ := srv.Socket(p, psd.SockStream)
		srv.Bind(p, ls, psd.SockAddr{Port: 9})
		srv.Listen(p, ls, 1)
		fd, _, err := srv.Accept(p, ls)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 4096)
		for {
			nr, err := srv.Recv(p, fd, buf, 0)
			if err != nil || nr == 0 {
				return
			}
			received += nr
		}
	})
	cli := a.NewApp("src")
	n.Spawn("src", func(p *psd.Thread) {
		p.Sleep(time.Millisecond)
		fd, _ := cli.Socket(p, psd.SockStream)
		if err := cli.Connect(p, fd, b.Addr(9)); err != nil {
			t.Error(err)
			return
		}
		chunk := make([]byte, 4096)
		for sent := 0; sent < total; {
			nw, err := cli.Send(p, fd, chunk, 0)
			if err != nil {
				t.Error(err)
				return
			}
			sent += nw
		}
		cli.Close(p, fd)
	})
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if received != total {
		t.Fatalf("received %d of %d under loss", received, total)
	}
}
