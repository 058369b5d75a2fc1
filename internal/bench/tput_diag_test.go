package bench

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/socketapi"
)

func runTputDiag(t *testing.T, cfg SysConfig, bufKB int) {
	w := cfg.Build(42)
	const total = 4 << 20
	sink := w.NewB("sink")
	source := w.NewA("source")
	var srcLib, sinkLib *core.Library
	if l, ok := source.(*core.Library); ok {
		srcLib = l
	}
	if l, ok := sink.(*core.Library); ok {
		sinkLib = l
	}
	var start, end sim.Time
	w.Sim.Spawn("sink", func(p *sim.Proc) {
		ls, _ := sink.Socket(p, socketapi.SockStream)
		sink.SetSockOpt(p, ls, socketapi.SoRcvBuf, bufKB*1024)
		sink.Bind(p, ls, socketapi.SockAddr{Port: 5001})
		sink.Listen(p, ls, 1)
		fd, _, _ := sink.Accept(p, ls)
		buf := make([]byte, 8192)
		got := 0
		for got < total {
			n, err := sink.Recv(p, fd, buf, 0)
			if err != nil || n == 0 {
				t.Errorf("recv: n=%d err=%v", n, err)
				return
			}
			got += n
		}
		end = p.Now()
	})
	w.Sim.Spawn("source", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		fd, _ := source.Socket(p, socketapi.SockStream)
		source.SetSockOpt(p, fd, socketapi.SoSndBuf, bufKB*1024)
		source.Connect(p, fd, socketapi.SockAddr{Addr: w.IPB, Port: 5001})
		start = p.Now()
		payload := make([]byte, 8192)
		for sent := 0; sent < total; {
			n, err := source.Send(p, fd, payload, 0)
			if err != nil {
				t.Error(err)
				return
			}
			sent += n
		}
	})
	if err := w.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	dur := end.Sub(start)
	txA := w.a.Kern().NIC.TxFrames.Value()
	txB := w.b.Kern().NIC.TxFrames.Value()
	cpuA := w.a.Kern().CPU.BusyTime()
	cpuB := w.b.Kern().CPU.BusyTime()
	t.Logf("%s buf=%dKB: %.0f KB/s; dataFrames(A)=%d (avg %0.f B/seg), acks(B)=%d, cpuA=%v (%.0f%%), cpuB=%v (%.0f%%), wire=%v busy",
		cfg.Name, bufKB, float64(total)/1024/dur.Seconds(),
		txA, float64(total)/float64(txA), txB,
		cpuA, 100*float64(cpuA)/float64(dur), cpuB, 100*float64(cpuB)/float64(dur),
		dur)
	if srcLib != nil {
		t.Logf("  src stack: %+v", srcLib.St.Stats)
	}
	if sinkLib != nil {
		t.Logf("  sink stack: %+v", sinkLib.St.Stats)
	}
}

func TestTputDiag(t *testing.T) {
	cfgs := DECConfigs()
	runTputDiag(t, cfgs[0], 24)  // kernel
	runTputDiag(t, cfgs[5], 120) // lib SHM-IPF
	runTputDiag(t, cfgs[5], 24)
	runTputDiag(t, cfgs[3], 24) // lib IPC
}
