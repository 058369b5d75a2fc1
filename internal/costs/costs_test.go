package costs

import (
	"strings"
	"testing"
	"time"
	"unicode"
)

func us(d time.Duration) float64 { return float64(d) / 1000 }

func TestLinThroughPoints(t *testing.T) {
	l := LinUS(1, 19, 1460, 203)
	if got := us(l.At(1)); got < 18.9 || got > 19.1 {
		t.Fatalf("At(1) = %v µs, want 19", got)
	}
	if got := us(l.At(1460)); got < 202.9 || got > 203.1 {
		t.Fatalf("At(1460) = %v µs, want 203", got)
	}
}

func TestLinNegativeSlopeReproducesPoints(t *testing.T) {
	l := LinUS(1, 24, 1460, 20) // ip_output shrinks with size in Table 4
	if l.PerByteNS >= 0 {
		t.Fatalf("slope should be negative: %v", l.PerByteNS)
	}
	if got := us(l.At(1460)); got < 19.9 || got > 20.1 {
		t.Fatalf("At(1460) = %v, want 20", got)
	}
	// And the evaluation never goes negative, even far off the range.
	if l.At(1<<20) != 0 {
		t.Fatal("At must clamp at zero")
	}
}

func TestLinScalePlus(t *testing.T) {
	l := Lin{FixedNS: 100, PerByteNS: 2}
	s := l.Scale(2, 3)
	if s.FixedNS != 200 || s.PerByteNS != 6 {
		t.Fatalf("scale: %+v", s)
	}
	p := l.Plus(Lin{FixedNS: 1, PerByteNS: 1})
	if p.FixedNS != 101 || p.PerByteNS != 3 {
		t.Fatalf("plus: %+v", p)
	}
}

// sumPath adds up a path's components at message size n.
func sumPath(pc PathCosts, comps []Component, n int) time.Duration {
	var total time.Duration
	for _, c := range comps {
		total += pc[c].At(n)
	}
	return total
}

// TestTable4Totals checks the encoded component costs reproduce the
// paper's published path totals at both calibration sizes.
func TestTable4Totals(t *testing.T) {
	cases := []struct {
		name   string
		pc     PathCosts
		comps  []Component
		n      int
		wantUS float64
	}{
		{"lib tcp send 1", decLibraryIPF().TCP, SendComponents, 1, 225},
		{"lib tcp send 1460", decLibraryIPF().TCP, SendComponents, 1460, 831},
		{"lib tcp recv 1", decLibraryIPF().TCP, RecvComponents, 1, 658},
		{"lib tcp recv 1460", decLibraryIPF().TCP, RecvComponents, 1460, 1529},
		{"lib udp send 1", decLibraryIPF().UDP, SendComponents, 1, 146},
		{"lib udp send 1472", decLibraryIPF().UDP, SendComponents, 1472, 544},
		{"lib udp recv 1", decLibraryIPF().UDP, RecvComponents, 1, 456},
		{"lib udp recv 1472", decLibraryIPF().UDP, RecvComponents, 1472, 1141},
		{"kern tcp send 1", decKernel().TCP, SendComponents, 1, 214},
		{"kern tcp send 1460", decKernel().TCP, SendComponents, 1460, 585},
		{"kern tcp recv 1", decKernel().TCP, RecvComponents, 1, 348},
		{"kern tcp recv 1460", decKernel().TCP, RecvComponents, 1460, 1123},
		{"kern udp send 1", decKernel().UDP, SendComponents, 1, 231},
		{"kern udp send 1472", decKernel().UDP, SendComponents, 1472, 565},
		{"kern udp recv 1", decKernel().UDP, RecvComponents, 1, 351},
		{"kern udp recv 1472", decKernel().UDP, RecvComponents, 1472, 1042},
		{"srv tcp send 1", decServer().TCP, SendComponents, 1, 675},
		{"srv tcp send 1460", decServer().TCP, SendComponents, 1460, 1382},
		{"srv tcp recv 1", decServer().TCP, RecvComponents, 1, 1138},
		{"srv tcp recv 1460", decServer().TCP, RecvComponents, 1460, 2455},
		{"srv udp send 1", decServer().UDP, SendComponents, 1, 734},
		{"srv udp send 1472", decServer().UDP, SendComponents, 1472, 1420},
		{"srv udp recv 1", decServer().UDP, RecvComponents, 1, 1019},
		{"srv udp recv 1472", decServer().UDP, RecvComponents, 1472, 2086},
	}
	for _, c := range cases {
		got := us(sumPath(c.pc, c.comps, c.n))
		// Negative-slope clamping (ip_output, netisr rows) adds a few µs
		// at the max size; allow 2% plus a 12µs absolute floor.
		tol := c.wantUS * 0.02
		if tol < 12 {
			tol = 12
		}
		if got < c.wantUS-tol || got > c.wantUS+tol {
			t.Errorf("%s: sum = %.1f µs, want %.0f ± %.0f", c.name, got, c.wantUS, tol)
		}
	}
}

// TestPaperSanityCheck is the consistency check DESIGN.md promises: the
// one-way UDP 1-byte sums from Table 4 must be consistent with Table 2's
// round trips (paper: library 653, kernel 633, server 1804 µs one-way,
// including 51 µs network transit).
func TestPaperSanityCheck(t *testing.T) {
	transit := 51.0
	cases := []struct {
		name string
		pc   ProtoCosts
		want float64
	}{
		{"library", decLibraryIPF(), 653},
		{"kernel", decKernel(), 633},
		{"server", decServer(), 1804},
	}
	for _, c := range cases {
		oneWay := us(sumPath(c.pc.UDP, SendComponents, 1)+sumPath(c.pc.UDP, RecvComponents, 1)) + transit
		if oneWay < c.want-15 || oneWay > c.want+15 {
			t.Errorf("%s one-way = %.0f µs, want %.0f", c.name, oneWay, c.want)
		}
	}
}

func TestOrderings(t *testing.T) {
	// The derived variants must preserve the paper's latency ordering at
	// 1 byte (one-way sums): SHM-IPF < SHM < IPC for the library, and
	// library < server by a large margin.
	ipf := DECLibrarySHMIPF().Costs.UDP
	shm := DECLibrarySHM().Costs.UDP
	ipc := DECLibraryIPC().Costs.UDP
	srv := DECServerUX().Costs.UDP
	sum := func(pc PathCosts) time.Duration {
		return sumPath(pc, SendComponents, 1) + sumPath(pc, RecvComponents, 1)
	}
	if !(sum(ipf) < sum(shm) && sum(shm) < sum(ipc)) {
		t.Errorf("library delivery ordering violated: ipf=%v shm=%v ipc=%v", sum(ipf), sum(shm), sum(ipc))
	}
	if sum(srv) < 2*sum(ipf) {
		t.Errorf("server should be >2x library at 1 byte: srv=%v ipf=%v", sum(srv), sum(ipf))
	}
}

func TestUltrixSlowerThanMach(t *testing.T) {
	m := DECKernelMach25().Costs.UDP
	u := DECKernelUltrix().Costs.UDP
	for i := Component(0); i < NumComponents; i++ {
		if u[i].At(100) < m[i].At(100) {
			t.Errorf("Ultrix %v cheaper than Mach 2.5", i)
		}
	}
}

func TestGatewayProfiles(t *testing.T) {
	p := I486Kernel386BSD()
	if !p.LargeTCPSendBroken {
		t.Error("386BSD must carry the large-TCP-send bug")
	}
	if !I486ServerBNR2SS().LargeTCPSendBroken {
		t.Error("BNR2SS must carry the large-TCP-send bug")
	}
	if I486KernelMach25().LargeTCPSendBroken {
		t.Error("Mach 2.5 must not carry the bug")
	}
	// The Gateway NIC's per-byte cost must dominate: device-boundary cost
	// at 1460 bytes should exceed 1 ms (it is what caps throughput).
	dev := I486KernelMach25().Costs.TCP[CompDeviceIntrRead].At(1460)
	if dev < time.Millisecond {
		t.Errorf("gateway device read at 1460B = %v, expected > 1ms", dev)
	}
	// 386BSD in-kernel receive path must be slower than the i486 library
	// receive path (the paper's latency inversion).
	bsd := sumPath(I486Kernel386BSD().Costs.UDP, RecvComponents, 1)
	lib := sumPath(I486LibrarySHM().Costs.UDP, RecvComponents, 1)
	if bsd <= lib {
		t.Errorf("386BSD recv (%v) should exceed library recv (%v)", bsd, lib)
	}
}

func TestNewAPIRemovesCopies(t *testing.T) {
	base := DECLibrarySHMIPF()
	na := WithNewAPI(base)
	if na.Name != "Mach 3.0+UX Library-NEWAPI-SHM-IPF" {
		t.Errorf("name = %q", na.Name)
	}
	if na.Costs.TCP[CompEntryCopyin].PerByteNS != 0 || na.Costs.TCP[CompCopyoutExit].PerByteNS != 0 {
		t.Error("NEWAPI left per-byte copy costs")
	}
	if na.Costs.TCP[CompEntryCopyin].FixedNS != base.Costs.TCP[CompEntryCopyin].FixedNS {
		t.Error("NEWAPI changed fixed costs")
	}
	if na.Costs.TCP[CompTransportOutput] != base.Costs.TCP[CompTransportOutput] {
		t.Error("NEWAPI touched protocol costs")
	}
}

func TestComponentNames(t *testing.T) {
	if CompEntryCopyin.String() != "entry/copyin" || CompCopyoutExit.String() != "copyout/exit" {
		t.Error("component names wrong")
	}
	if Component(99).String() != "unknown" {
		t.Error("out-of-range name")
	}
	// CompDataplane and the three components after it are deliberately
	// outside both Table 4 path lists.
	if len(SendComponents)+len(RecvComponents) != int(CompDataplane) {
		t.Error("component lists incomplete")
	}
	if CompDataplane.String() != "dataplane" {
		t.Error("dataplane component name wrong")
	}
	// Slug is the name with everything but letters and digits made '_'.
	for c := Component(0); c < NumComponents; c++ {
		want := strings.Map(func(r rune) rune {
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				return r
			}
			return '_'
		}, c.String())
		if got := c.Slug(); got != want {
			t.Errorf("%q.Slug() = %q, want %q", c, got, want)
		}
	}
}

func TestStyleDeliveryStrings(t *testing.T) {
	if StyleLibrary.String() != "library" || StyleKernel.String() != "kernel" || StyleServer.String() != "server" {
		t.Error("style strings")
	}
	if DeliverIPC.String() != "IPC" || DeliverSHM.String() != "SHM" || DeliverSHMIPF.String() != "SHM-IPF" {
		t.Error("delivery strings")
	}
}
