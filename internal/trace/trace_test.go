package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/wire"
)

func testRecorder(layers ...Layer) *Recorder {
	return New(sim.New(1), layers...)
}

func TestLayerMask(t *testing.T) {
	r := testRecorder(LayerNet, LayerStack)
	for _, c := range []struct {
		l    Layer
		want bool
	}{
		{LayerSim, false}, {LayerNet, true}, {LayerFilter, false},
		{LayerStack, true}, {LayerCore, false},
	} {
		if got := r.On(c.l); got != c.want {
			t.Errorf("On(%v) = %v, want %v", c.l, got, c.want)
		}
	}
	if all := testRecorder(); all.Mask() != AllLayers {
		t.Errorf("no layers should mean all layers, got mask %b", all.Mask())
	}
	var nilRec *Recorder
	if nilRec.On(LayerNet) || nilRec.Mask() != 0 || nilRec.Len() != 0 {
		t.Error("nil recorder must be fully disabled")
	}
}

func TestParseLayer(t *testing.T) {
	for _, name := range []string{"sim", "net", "filter", "stack", "core"} {
		l, err := ParseLayer(name)
		if err != nil {
			t.Fatal(err)
		}
		if l.String() != name {
			t.Errorf("ParseLayer(%q).String() = %q", name, l.String())
		}
	}
	if _, err := ParseLayer("bogus"); err == nil {
		t.Error("ParseLayer should reject unknown names")
	}
}

func TestEmitAndLimit(t *testing.T) {
	r := testRecorder(LayerCore)
	r.SetLimit(2)
	for i := 0; i < 5; i++ {
		r.Emit(LayerCore, EvSession, "h", "tcp", "new", int64(i), 0, 0)
	}
	if r.Len() != 2 || r.Dropped() != 3 {
		t.Fatalf("limit: got %d records, %d dropped", r.Len(), r.Dropped())
	}
	recs := r.Records()
	if recs[0].Seq != 1 || recs[1].Seq != 2 {
		t.Errorf("Seq not monotonic from 1: %d, %d", recs[0].Seq, recs[1].Seq)
	}
}

func TestEmitFrameCopies(t *testing.T) {
	r := testRecorder(LayerNet)
	frame := []byte{1, 2, 3, 4}
	r.EmitFrame(EvFrameTx, "h", "", frame, 42)
	frame[0] = 0xff // later in-place corruption must not reach the trace
	rec := r.Records()[0]
	if rec.Frame[0] != 1 {
		t.Error("EmitFrame must copy the frame bytes")
	}
	if rec.Arg0 != 4 || rec.Arg1 != 42 {
		t.Errorf("frame sizes: got len=%d wire=%d", rec.Arg0, rec.Arg1)
	}
}

func TestEventLayerTaxonomy(t *testing.T) {
	// Every event names exactly one layer and has a distinct name; Want
	// relies on the former to omit Layer, text output on the latter.
	seen := map[string]Event{}
	for e := Event(0); e < numEvents; e++ {
		name := e.String()
		if name == "" || strings.HasPrefix(name, "event(") {
			t.Errorf("event %d has no name", e)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("events %d and %d share the name %q", prev, e, name)
		}
		seen[name] = e
		if LayerOf(e) >= numLayers {
			t.Errorf("event %v maps to no layer", e)
		}
	}
}

func TestExpectSubsequence(t *testing.T) {
	r := testRecorder(LayerCore, LayerStack)
	r.Emit(LayerCore, EvSession, "alpha", "tcp", "new", 1, 0, 0)
	r.Emit(LayerStack, EvTCPState, "alpha.os-server", "10.0.0.1:1>10.0.0.2:2", "CLOSED -> SYN_SENT", 0, 0, 0)
	r.Emit(LayerStack, EvTCPState, "beta.os-server", "10.0.0.2:2>10.0.0.1:1", "CLOSED -> SYN_RCVD", 0, 0, 0)
	r.Emit(LayerCore, EvConnTeardown, "alpha", "10.0.0.1:1", "", 1, 0, 0)
	recs := r.Records()

	if err := Expect(recs,
		Want{Event: EvSession, Host: "alpha"},
		Want{Event: EvTCPState, Host: "alpha", Contains: "SYN_SENT"},
		Want{Event: EvTCPState, Host: "beta", Contains: "SYN_RCVD"},
		Want{Event: EvConnTeardown},
	); err != nil {
		t.Fatalf("matching subsequence rejected: %v", err)
	}
	// Out of order: SYN_RCVD before SYN_SENT must fail.
	if err := Expect(recs,
		Want{Event: EvTCPState, Contains: "SYN_RCVD"},
		Want{Event: EvTCPState, Contains: "SYN_SENT"},
	); err == nil {
		t.Fatal("out-of-order wants should not match")
	}
	// Host is a prefix match on the component name.
	if n := Count(recs, Want{Event: EvTCPState, Host: "alpha"}); n != 1 {
		t.Errorf("host prefix count = %d, want 1", n)
	}
	if got := Find(recs, Want{Event: EvTCPState, Host: "alpha.os-server"}); len(got) != 1 {
		t.Errorf("Find by full host = %d records, want 1", len(got))
	}
}

// buildEthFrame marshals a tiny valid ARP frame for pcap tests.
func buildEthFrame(fill byte) []byte {
	p := wire.ARPPacket{
		Op:        wire.ARPRequest,
		SenderMAC: wire.MAC{fill, 1, 2, 3, 4, 5},
		SenderIP:  wire.IP(10, 0, 0, fill),
		TargetIP:  wire.IP(10, 0, 0, 99),
	}
	eh := wire.EthHeader{
		Dst: wire.BroadcastMAC, Src: p.SenderMAC, Type: wire.EtherTypeARP,
	}
	body := p.Marshal()
	frame := make([]byte, wire.EthHeaderLen+len(body))
	eh.Marshal(frame)
	copy(frame[wire.EthHeaderLen:], body)
	return frame
}

func TestPcapRoundTripSynthetic(t *testing.T) {
	s := sim.New(1)
	r := New(s, LayerNet)
	var frames [][]byte
	for i := 0; i < 3; i++ {
		f := buildEthFrame(byte(i + 1))
		frames = append(frames, f)
		r.EmitFrame(EvFrameTx, "h", "", f, int64(len(f)+8))
		// Non-frame records must not land in the pcap.
		r.Emit(LayerNet, EvFrameRx, "peer", "h", "", int64(len(f)), 0, 0)
	}

	var buf bytes.Buffer
	if err := r.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	pkts, err := ReadPcap(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != len(frames) {
		t.Fatalf("got %d packets, want %d", len(pkts), len(frames))
	}
	for i, pkt := range pkts {
		if !bytes.Equal(pkt.Data, frames[i]) {
			t.Errorf("packet %d bytes differ", i)
		}
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	r := testRecorder(LayerNet, LayerStack)
	r.EmitFrame(EvFrameTx, "alpha", "", buildEthFrame(1), 50)
	r.Emit(LayerStack, EvTCPState, "alpha.os-server", "c", "CLOSED -> SYN_SENT", 0, 0, 0)
	r.Emit(LayerStack, EvTCPCwnd, "alpha.os-server", "c", "", 1460, 65535, 0)

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var instants, counters, meta int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "i":
			instants++
		case "C":
			counters++
		case "M":
			meta++
		}
	}
	if instants != 3 || counters != 1 || meta == 0 {
		t.Errorf("event mix: %d instants, %d counters, %d metadata", instants, counters, meta)
	}
}

// TestDisabledRecorderAllocs is the zero-cost-when-disabled guarantee:
// the On guard plus the skipped Emit must not allocate, whether the
// recorder is nil or merely has the layer switched off.
func TestDisabledRecorderAllocs(t *testing.T) {
	frame := buildEthFrame(1)
	probe := func(r *Recorder) func() {
		return func() {
			if r.On(LayerNet) {
				r.EmitFrame(EvFrameTx, "h", "", frame, 50)
			}
			if r.On(LayerStack) {
				r.Emit(LayerStack, EvTCPState, "h", "c", "x -> y", 0, 0, 0)
			}
			if r.On(LayerCore) {
				r.Emit(LayerCore, EvSession, "h", "tcp", "new", 1, 0, 0)
			}
		}
	}
	if n := testing.AllocsPerRun(1000, probe(nil)); n != 0 {
		t.Errorf("nil recorder: %.1f allocs per event site pass, want 0", n)
	}
	onlySim := testRecorder(LayerSim)
	if n := testing.AllocsPerRun(1000, probe(onlySim)); n != 0 {
		t.Errorf("off-layer recorder: %.1f allocs per event site pass, want 0", n)
	}
}

func TestTextOutputDeterministic(t *testing.T) {
	render := func() string {
		r := testRecorder(LayerNet, LayerCore)
		r.EmitFrame(EvFrameTx, "alpha", "", buildEthFrame(7), 50)
		r.Emit(LayerCore, EvPortOp, "beta", "tcp", "bind", 80, 1, 0)
		var buf bytes.Buffer
		if err := r.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Error("text rendering differs across identical recorders")
	}
	if !strings.Contains(a, "ARP who-has") || !strings.Contains(a, "port bind tcp/80") {
		t.Errorf("unexpected text rendering:\n%s", a)
	}
}
