package psd_test

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/psd"
)

// TestRobustnessMatrix is the deployment-level torture matrix: every
// protocol architecture — in-kernel, user-level server, and the paper's
// decomposed library — must deliver a byte-identical stream under loss,
// duplication, reordering, and a mid-transfer partition that heals.
// This is the paper's credibility requirement: the library stack may
// only be called equivalent to the in-kernel one if it survives the
// same hostile network.
func TestRobustnessMatrix(t *testing.T) {
	archs := []struct {
		name string
		a    psd.Arch
	}{
		{"inkernel", psd.InKernel()},
		{"server", psd.ServerBased()},
		{"library", psd.Decomposed()},
	}
	faults := []struct {
		name  string
		rates fault.Rates
		plan  string
	}{
		{"loss5", fault.Rates{Drop: 0.05}, ""},
		{"dup5", fault.Rates{Dup: 0.05}, ""},
		{"reorder10", fault.Rates{Reorder: 0.10, ReorderBy: 3 * time.Millisecond}, ""},
		{"partheal", fault.Rates{}, "@20ms partition a|b for=400ms"},
	}
	for _, ac := range archs {
		for _, fc := range faults {
			ac, fc := ac, fc
			t.Run(ac.name+"/"+fc.name, func(t *testing.T) {
				runRobustTransfer(t, ac.a, fc.rates, fc.plan)
			})
		}
	}
}

func runRobustTransfer(t *testing.T, arch psd.Arch, rates fault.Rates, plan string) {
	t.Helper()
	n := psd.New(31)
	n.Faults().SetDefaultRates(rates)
	if plan != "" {
		if err := n.ApplyFaultPlan(plan); err != nil {
			t.Fatal(err)
		}
	}
	a := n.Host("a", "10.0.0.1", arch)
	b := n.Host("b", "10.0.0.2", arch)

	const total = 32 * 1024
	payload := make([]byte, total)
	rand.New(rand.NewSource(n.Sim().Seed())).Read(payload)
	var got bytes.Buffer

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
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			if nr == 0 {
				return
			}
			got.Write(buf[:nr])
		}
	})
	cli := a.NewApp("src")
	n.Spawn("src", func(p *psd.Thread) {
		p.Sleep(time.Millisecond)
		fd, _ := cli.Socket(p, psd.SockStream)
		if err := cli.Connect(p, fd, b.Addr(9)); err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		for sent := 0; sent < total; {
			end := sent + 4096
			if end > total {
				end = total
			}
			nw, err := cli.Send(p, fd, payload[sent:end], 0)
			if err != nil {
				t.Errorf("send: %v", err)
				return
			}
			sent += nw
		}
		cli.Close(p, fd)
	})
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("stream not byte-identical: got %d bytes, want %d", got.Len(), total)
	}
	// The named faults must actually have fired (a vacuous pass here
	// would mean the injector is wired to the wrong links).
	var c fault.Counters
	for _, l := range n.Faults().Links() {
		c.Add(n.Faults().Counters(l))
	}
	switch {
	case rates.Drop > 0 && c.Dropped == 0:
		t.Fatalf("no frames dropped: %+v", c)
	case rates.Dup > 0 && c.Duplicated == 0:
		t.Fatalf("no frames duplicated: %+v", c)
	case rates.Reorder > 0 && c.Reordered == 0:
		t.Fatalf("no frames reordered: %+v", c)
	case plan != "" && c.PartDrops == 0:
		t.Fatalf("partition never cut a delivery: %+v", c)
	}
}
