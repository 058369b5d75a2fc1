package psd

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/trace"
)

// forkExitDigest opens conns established connections from one process
// on host a to a listener on host b, then forks or exits that process,
// and reduces the run to its full core+stack+net trace plus the event
// count. A process holding several descriptors issues one return, dup,
// FIN or RST per descriptor; the order they go out in is the order the
// descriptor table is walked.
func forkExitDigest(t *testing.T, arch Arch, fork bool) string {
	t.Helper()
	const conns = 8
	n := NewConfig(Config{Seed: 5, Trace: []TraceLayer{TraceCore, TraceStack, TraceNet}})
	a := n.Host("a", "10.0.0.1", arch)
	b := n.Host("b", "10.0.0.2", arch)
	srv, cli := b.NewApp("server"), a.NewApp("client")
	n.sim.SpawnDaemon("server", func(th *Thread) {
		ls, _ := srv.Socket(th, SockStream)
		srv.Bind(th, ls, SockAddr{Port: 80})
		srv.Listen(th, ls, conns)
		for {
			if _, _, err := srv.Accept(th, ls); err != nil {
				return
			}
		}
	})
	n.Spawn("client", func(th *Thread) {
		th.Sleep(time.Millisecond)
		for i := 0; i < conns; i++ {
			fd, _ := cli.Socket(th, SockStream)
			if err := cli.Connect(th, fd, b.Addr(80)); err != nil {
				t.Errorf("connect %d: %v", i, err)
				return
			}
		}
		if !fork {
			cli.ExitProcess(th)
			return
		}
		child, err := cli.Fork(th, "child")
		if err != nil {
			t.Errorf("fork: %v", err)
			return
		}
		child.ExitProcess(th)
	})
	if err := n.Run(); err != nil {
		t.Fatal(err)
	}
	if err := n.RunFor(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteText(&buf, n.Trace().Records()); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "dispatched=%d", n.sim.Dispatched())
	return buf.String()
}

// TestForkExitDeterminism: same seed, same process, same trace — on
// every architecture, for fork and for exit. Before the descriptor
// table was walked in ascending order this produced up to 12 distinct
// traces in 12 runs (Go map order decided which session was returned,
// dup'ed, closed or reset first).
func TestForkExitDeterminism(t *testing.T) {
	for _, f := range ArchFlavors() {
		for _, mode := range []string{"fork", "exit"} {
			t.Run(f.Name+"/"+mode, func(t *testing.T) {
				first := forkExitDigest(t, f.New(), mode == "fork")
				for run := 1; run < 8; run++ {
					diffDigest(t, fmt.Sprintf("run %d vs run 0", run), first, forkExitDigest(t, f.New(), mode == "fork"))
				}
			})
		}
	}
}
