package psd_test

import (
	"bytes"
	"testing"
	"time"

	"repro/psd"
)

func TestParseCIDR(t *testing.T) {
	ip, plen, err := psd.ParseCIDR("10.1.0.7/24")
	if err != nil {
		t.Fatal(err)
	}
	if ip.String() != "10.1.0.0" || plen != 24 {
		t.Fatalf("ParseCIDR = %v/%d, want masked 10.1.0.0/24", ip, plen)
	}
	for _, bad := range []string{"", "10.1.0.0", "10.1.0.0/33", "10.1.0.0/-1", "x/24", "10.1.0.0/x", "10.0.0.0/+8", "10.0.0.0/-0", "10.0.0.0/", "10.0.0.-0/8"} {
		if _, _, err := psd.ParseCIDR(bad); err == nil {
			t.Errorf("ParseCIDR(%q) accepted", bad)
		}
	}
}

// TestRoutedTCPAcrossArchitectures proves the multi-subnet topology API
// end to end: a TCP connection between hosts on different subnets,
// forwarded by a router, on every architecture.
func TestRoutedTCPAcrossArchitectures(t *testing.T) {
	archs := []struct {
		name string
		a    psd.Arch
	}{
		{"decomposed", psd.Decomposed()},
		{"inkernel", psd.InKernel()},
		{"server", psd.ServerBased()},
	}
	for _, ac := range archs {
		ac := ac
		t.Run(ac.name, func(t *testing.T) {
			n := psd.NewConfig(psd.Config{Seed: 42, Metrics: true})
			west := n.NewSubnet("west", "10.1.0.0/24")
			east := n.NewSubnet("east", "10.2.0.0/24")
			n.NewRouter("core").Attach(west, "10.1.0.254").Attach(east, "10.2.0.254")

			hostA := west.Host("a", "10.1.0.1", ac.a)
			hostB := east.Host("b", "10.2.0.1", ac.a)
			if gw, ok := west.Gateway(); !ok || gw.String() != "10.1.0.254" {
				t.Fatalf("west gateway = %v, %v", gw, ok)
			}

			srv := hostB.NewApp("echo")
			n.Spawn("echo", func(p *psd.Thread) {
				fd, err := srv.Socket(p, psd.SockStream)
				if err != nil {
					t.Error(err)
					return
				}
				if err := srv.Bind(p, fd, psd.SockAddr{Port: 7}); err != nil {
					t.Error(err)
					return
				}
				if err := srv.Listen(p, fd, 4); err != nil {
					t.Error(err)
					return
				}
				cfd, _, err := srv.Accept(p, fd)
				if err != nil {
					t.Error(err)
					return
				}
				buf := make([]byte, 256)
				nr, err := srv.Recv(p, cfd, buf, 0)
				if err != nil {
					t.Error(err)
					return
				}
				srv.Send(p, cfd, buf[:nr], 0)
				srv.Close(p, cfd)
				srv.Close(p, fd)
			})

			cli := hostA.NewApp("cli")
			var got []byte
			n.Spawn("cli", func(p *psd.Thread) {
				p.Sleep(time.Millisecond)
				fd, err := cli.Socket(p, psd.SockStream)
				if err != nil {
					t.Error(err)
					return
				}
				if err := cli.Connect(p, fd, hostB.Addr(7)); err != nil {
					t.Error(err)
					return
				}
				if _, err := cli.Send(p, fd, []byte("over the hill"), 0); err != nil {
					t.Error(err)
					return
				}
				buf := make([]byte, 256)
				nr, err := cli.Recv(p, fd, buf, 0)
				if err != nil {
					t.Error(err)
					return
				}
				got = buf[:nr]
				cli.Close(p, fd)
			})

			if err := n.Run(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, []byte("over the hill")) {
				t.Fatalf("routed echo = %q", got)
			}
			// The router really forwarded: both directions crossed it.
			r := n.Routers()[0]
			if f := r.Stats().Forwarded.Value(); f < 4 {
				t.Fatalf("router forwarded %d frames, want >= 4", f)
			}
			// Router metrics landed in the shared registry.
			snap := n.MetricsSnapshot()
			if uint64(snap.Sum("router.core.forwarded")) != r.Stats().Forwarded.Value() {
				t.Fatalf("registry forwarded mismatch")
			}
		})
	}
}

// TestRoutedUDPMultiHop chains two routers over a transit subnet and
// exercises static inter-router routes in both directions.
func TestRoutedUDPMultiHop(t *testing.T) {
	n := psd.New(7)
	west := n.NewSubnet("west", "10.1.0.0/24")
	mid := n.NewSubnet("mid", "10.9.0.0/24")
	east := n.NewSubnet("east", "10.2.0.0/24")

	r1 := n.NewRouter("r1").Attach(west, "10.1.0.254").Attach(mid, "10.9.0.1")
	r2 := n.NewRouter("r2").Attach(east, "10.2.0.254").Attach(mid, "10.9.0.2")
	if err := r1.AddRoute("10.2.0.0/24", "10.9.0.2"); err != nil {
		t.Fatal(err)
	}
	if err := r2.AddRoute("10.1.0.0/24", "10.9.0.1"); err != nil {
		t.Fatal(err)
	}

	hostA := west.Host("a", "10.1.0.1", psd.Decomposed())
	hostB := east.Host("b", "10.2.0.1", psd.Decomposed())

	srv := hostB.NewApp("echo")
	n.Spawn("echo", func(p *psd.Thread) {
		fd, _ := srv.Socket(p, psd.SockDgram)
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
	var got []byte
	n.Spawn("cli", func(p *psd.Thread) {
		p.Sleep(time.Millisecond)
		fd, _ := cli.Socket(p, psd.SockDgram)
		if _, err := cli.SendTo(p, fd, []byte("two hops"), 0, hostB.Addr(7)); err != nil {
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
	if !bytes.Equal(got, []byte("two hops")) {
		t.Fatalf("multi-hop echo = %q", got)
	}
	if r1.Stats().Forwarded.Value() == 0 || r2.Stats().Forwarded.Value() == 0 {
		t.Fatalf("both routers should forward: r1=%d r2=%d",
			r1.Stats().Forwarded.Value(), r2.Stats().Forwarded.Value())
	}
}

func TestSubnetAddressValidation(t *testing.T) {
	n := psd.New(1)
	s := n.NewSubnet("west", "10.1.0.0/24")
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("host off-subnet", func() { s.Host("x", "10.2.0.1", psd.InKernel()) })
	mustPanic("router off-subnet", func() { n.NewRouter("r").Attach(s, "10.2.0.254") })
	mustPanic("bad cidr", func() { n.NewSubnet("bad", "10.0.0.0") })
}
