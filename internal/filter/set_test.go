package filter

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/wire"
)

// The differential tests hold Set.Match to Set.walk, the sequential
// run of every installed program that the kernel being modelled does:
// same filter, same examined, same Steps and Runs, after every
// operation.

var (
	diffIPs   = []wire.IPAddr{wire.IP(10, 0, 0, 1), wire.IP(10, 0, 0, 2)}
	diffPorts = []uint16{80, 1234}
	diffProto = []uint8{wire.ProtoTCP, wire.ProtoUDP}
)

// shapeSpec is a spec over the small value domain above whose present
// fields are the set bits of shape, one of the 32 wildcard shapes.
func shapeSpec(rng *rand.Rand, shape int) MatchSpec {
	var m MatchSpec
	if shape&1 != 0 {
		m.Proto = diffProto[rng.Intn(2)]
	}
	if shape&2 != 0 {
		m.RemoteIP = diffIPs[rng.Intn(2)]
	}
	if shape&4 != 0 {
		m.LocalIP = diffIPs[rng.Intn(2)]
	}
	if shape&8 != 0 {
		m.RemotePort = diffPorts[rng.Intn(2)]
	}
	if shape&16 != 0 {
		m.LocalPort = diffPorts[rng.Intn(2)]
	}
	return m
}

// opaquePrograms are programs the index cannot hold.
var opaquePrograms = []Program{
	{{OpPushLit, 1}, {OpRet, 0}},                                                      // the catch-all
	{{OpLoad8, 50}, {OpPushLit, 0}, {OpEq, 0}, {OpRet, 0}},                            // reads past every header
	{{OpLoad16, offEtherType}, {OpPushLit, wire.EtherTypeARP}, {OpEq, 0}, {OpRet, 0}}, // ARP
	{{OpLoad8, offIPProto}, {OpPushLit, wire.ProtoTCP}, {OpNe, 0}, {OpRet, 0}},        // a != test
}

// diffFrame draws a frame: IPv4 or ARP, IHL 5 or 6, maybe a fragment,
// values from the same small domain, cut to 0–60 bytes.
func diffFrame(rng *rand.Rand) []byte {
	frag, mf := uint16(0), false
	if rng.Intn(5) == 0 {
		frag, mf = uint16(rng.Intn(3)), rng.Intn(2) == 0
	}
	b := buildFrame(diffProto[rng.Intn(2)], diffIPs[rng.Intn(2)], diffIPs[rng.Intn(2)],
		diffPorts[rng.Intn(2)], diffPorts[rng.Intn(2)], frag, mf, 18)
	switch rng.Intn(8) {
	case 0:
		b[offEtherType], b[offEtherType+1] = wire.EtherTypeARP>>8, wire.EtherTypeARP&0xff
	case 1:
		b[offIPVerIHL] = 0x46
	}
	if rng.Intn(3) == 0 {
		b = b[:rng.Intn(len(b)+1)]
	}
	return b
}

// diffSet applies seeded random installs and removes to a set, calling
// check after each.
func diffSet(rng *rand.Rand, ops int, check func(*Set)) *Set {
	s := NewSet()
	var ids []int
	for ; ops > 0; ops-- {
		switch r := rng.Intn(10); {
		case r < 2 && len(ids) > 0:
			i := rng.Intn(len(ids))
			if !s.Remove(ids[i]) {
				panic("installed filter not removable")
			}
			ids = slices.Delete(ids, i, i+1)
		default:
			prog := Compile(shapeSpec(rng, rng.Intn(32)))
			if r == 2 {
				prog = opaquePrograms[rng.Intn(len(opaquePrograms))]
			}
			f, err := s.Install(prog, MatchSpec{}, rng.Intn(3), nil)
			if err != nil {
				panic(err)
			}
			ids = append(ids, f.ID)
		}
		check(s)
	}
	return s
}

// matchAgainstWalk holds one Match, and the index's own answer under it,
// to the walk. The index always owes the walk's winner and steps, and
// the walk's examined whenever it calls its answer exact; it reports
// whether it did.
func matchAgainstWalk(t *testing.T, s *Set, pkt []byte) (exact bool) {
	t.Helper()
	id := func(f *Filter) int {
		if f == nil {
			return 0
		}
		return f.ID
	}
	wantM, wantEx, wantSteps := s.walk(pkt)
	im, iex, isteps, exact := s.classify(pkt)
	if im != wantM || isteps != wantSteps || exact && iex != wantEx {
		t.Fatalf("index on %x over %d filters (%d opaque) = (id %d, examined %d, %d steps, exact %v), the walk says (id %d, examined %d, %d steps)",
			pkt, s.Len(), len(s.opaque), id(im), iex, isteps, exact, id(wantM), wantEx, wantSteps)
	}
	runs, steps := s.Runs, s.Steps
	m, ex := s.Match(pkt)
	if m != wantM || ex != wantEx || s.Steps-steps != wantSteps || s.Runs-runs != 1 {
		t.Fatalf("Match(%x) = (id %d, examined %d, %d steps, %d runs), the walk says (id %d, examined %d, %d steps, 1 run)",
			pkt, id(m), ex, s.Steps-steps, s.Runs-runs, id(wantM), wantEx, wantSteps)
	}
	return exact
}

func TestSetMatchesWalk(t *testing.T) {
	matches, walked := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := diffSet(rng, 120, func(s *Set) {
			for i := 0; i < 12; i++ {
				matches++
				if !matchAgainstWalk(t, s, diffFrame(rng)) {
					walked++
				}
			}
		})
		if (len(s.index) == 0) != (s.indexed == 0) {
			t.Fatalf("seed %d: %d index nodes for %d indexed filters", seed, len(s.index), s.indexed)
		}
	}
	// Both arms have to be among the cases: the index answering alone,
	// and the corner it hands back to the walk (a port-less or opaque
	// winner with further-reading indexed programs behind it), which
	// random priorities over all 32 shapes make far more common here
	// than session filters above one catch-all ever do.
	if walked < matches/10 || walked > matches*9/10 {
		t.Errorf("%d of %d matches fell back to the walk; want both arms well covered", walked, matches)
	}
	t.Logf("%d matches, %d answered by the fallback walk", matches, walked)
}

// TestSetDrainsClean: removing everything leaves no index state behind.
func TestSetDrainsClean(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := diffSet(rng, 200, func(*Set) {})
	for len(s.filters) > 0 {
		s.Remove(s.filters[rng.Intn(len(s.filters))].ID)
	}
	if len(s.index)+len(s.byID)+len(s.opaque)+s.indexed+s.instrs != 0 || s.untested != [nFields]int{} {
		t.Fatalf("empty set still holds %d nodes, %d ids, %d opaque, %d indexed, %d instructions, untested %v",
			len(s.index), len(s.byID), len(s.opaque), s.indexed, s.instrs, s.untested)
	}
}

func FuzzSetMatch(f *testing.F) {
	f.Add(int64(1), buildFrame(wire.ProtoTCP, diffIPs[0], diffIPs[1], 80, 1234, 0, false, 4))
	f.Add(int64(2), buildFrame(wire.ProtoUDP, diffIPs[1], diffIPs[0], 1234, 80, 1, true, 0))
	f.Add(int64(3), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, pkt []byte) {
		s := diffSet(rand.New(rand.NewSource(seed)), 48, func(*Set) {})
		matchAgainstWalk(t, s, pkt)
	})
}

// FuzzProgramRun: a program that validates runs to completion on any
// packet without reading past it, and one SpecOf recognises is the
// compilation of the spec it reports.
func FuzzProgramRun(f *testing.F) {
	enc := func(p Program) []byte {
		var b []byte
		for _, in := range p {
			b = append(b, byte(in.Op), byte(in.Arg>>24), byte(in.Arg>>16), byte(in.Arg>>8), byte(in.Arg))
		}
		return b
	}
	frame := buildFrame(wire.ProtoTCP, diffIPs[0], diffIPs[1], 80, 1234, 0, false, 4)
	f.Add(enc(Compile(MatchSpec{Proto: wire.ProtoTCP, LocalIP: diffIPs[1], LocalPort: 1234})), frame)
	for _, p := range opaquePrograms {
		f.Add(enc(p), frame)
	}
	f.Fuzz(func(t *testing.T, code, pkt []byte) {
		var p Program
		for ; len(code) >= 5; code = code[5:] {
			p = append(p, Instr{Op(code[0]), uint32(code[1])<<24 | uint32(code[2])<<16 | uint32(code[3])<<8 | uint32(code[4])})
		}
		if p.Validate() != nil {
			return
		}
		if _, ex := p.Run(pkt); ex > len(pkt) {
			t.Fatalf("examined %d of a %d-byte packet", ex, len(pkt))
		}
		if m, ok := SpecOf(p); ok && !slices.Equal(p, Compile(m)) {
			t.Fatalf("SpecOf reports %v for a program Compile does not emit for it", m)
		}
	})
}

func TestSpecOfRecognisesOnlyCompiled(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for shape := 0; shape < 32; shape++ {
		want := shapeSpec(rng, shape)
		p := Compile(want)
		if got, ok := SpecOf(p); !ok || got != want {
			t.Fatalf("SpecOf(Compile(%v)) = %v, %v", want, got, ok)
		}
		if len(p) > maxCompiled || cap(p) != maxCompiled {
			t.Fatalf("Compile(%v): len %d cap %d, want at most and exactly %d", want, len(p), cap(p), maxCompiled)
		}
		// Any single edit makes it somebody else's program.
		for i := range p {
			q := slices.Clone(p)
			q[i].Arg ^= 0x100
			if q[i].Op != OpPushLit && q[i].Op != OpLoad8 && q[i].Op != OpLoad16 && q[i].Op != OpLoad32 {
				q[i].Op = OpNe
			}
			if m, ok := SpecOf(q); ok && !slices.Equal(q, Compile(m)) {
				t.Fatalf("SpecOf accepted %v edited at instruction %d as %v", want, i, m)
			}
		}
		if _, ok := SpecOf(p[:len(p)-1]); ok {
			t.Fatalf("SpecOf accepted %v without its ret", want)
		}
	}
	for i, p := range opaquePrograms {
		if m, ok := SpecOf(p); ok {
			t.Errorf("SpecOf took hand-written program %d for %v", i, m)
		}
	}
}

// TestFilterAllocations pins the allocation budget: one per compiled
// program, none to recognise or match, and the Filter itself (plus at
// most one amortised growth) to install and remove a session.
func TestFilterAllocations(t *testing.T) {
	local, remote := wire.IP(10, 0, 0, 1), wire.IP(10, 0, 0, 2)
	spec := MatchSpec{Proto: wire.ProtoTCP, LocalIP: local, LocalPort: 80, RemoteIP: remote}
	s := NewSet()
	if _, err := s.Install(opaquePrograms[0], MatchSpec{}, 0, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1024; i++ {
		spec.RemotePort = uint16(1024 + i)
		if _, err := s.Install(Compile(spec), spec, 1, i); err != nil {
			t.Fatal(err)
		}
	}
	prog := Compile(spec)
	hit := buildFrame(wire.ProtoTCP, remote, local, spec.RemotePort, 80, 0, false, 64)
	fallThrough := buildFrame(wire.ProtoTCP, remote, local, 9, 80, 0, false, 64)
	budget := func(name string, max float64, run func()) {
		t.Helper()
		if got := testing.AllocsPerRun(200, run); got > max {
			t.Errorf("%s: %v allocations per run, want at most %v", name, got, max)
		}
	}
	budget("Compile", 1, func() { Compile(spec) })
	budget("SpecOf", 0, func() { SpecOf(prog) })
	budget("Install+Remove", 2, func() {
		f, _ := s.Install(prog, spec, 1, nil)
		s.Remove(f.ID)
	})

	if m, ex := s.Match(hit); m == nil || m.Owner != 1023 || ex != 38 {
		t.Fatalf("hit matched %+v, examined %d", m, ex)
	}
	budget("Match, hit", 0, func() { s.Match(hit) })
	if m, _ := s.Match(fallThrough); m == nil || m.Priority != 0 {
		t.Fatalf("fall-through matched %+v", m)
	}
	budget("Match, catch-all fall-through", 0, func() { s.Match(fallThrough) })
	s.Remove(1) // the catch-all: the same frame now misses
	if m, _ := s.Match(fallThrough); m != nil {
		t.Fatalf("miss matched %+v", m)
	}
	budget("Match, miss", 0, func() { s.Match(fallThrough) })
}

// TestChainShadowedCompiledRule: two compiled rules accepting the same
// frames — the second a strict superset of the first's tests — resolve
// to the one appended first, in either order, as the sequential chain
// does.
func TestChainShadowedCompiledRule(t *testing.T) {
	client := wire.IP(10, 0, 0, 2)
	wide := Compile(MatchSpec{RemoteIP: client})
	narrow := Compile(MatchSpec{Proto: wire.ProtoTCP, RemoteIP: client, LocalPort: 80})
	frame := buildFrame(wire.ProtoTCP, client, wire.IP(10, 0, 0, 1), 4000, 80, 0, false, 0)
	for _, c := range []struct {
		first, second Program
		examined      int
	}{{wide, narrow, 30}, {narrow, wide, 38}} {
		ch := NewChain()
		ch.Append(c.first, VerdictDrop)
		ch.Append(c.second, VerdictAbsorb)
		if v, ok := ch.Eval(frame); !ok || v != VerdictDrop {
			t.Errorf("Eval = (%v, %v), want the first rule's drop", v, ok)
		}
		if _, ex := ch.set.Match(frame); ex != c.examined {
			t.Errorf("examined %d, want %d", ex, c.examined)
		}
		if ch.set.Steps != 2 || ch.set.Runs != 2 {
			t.Errorf("%d steps in %d runs, want 2 in 2", ch.set.Steps, ch.set.Runs)
		}
	}
}

// BenchmarkSetMatch is the receive path's demultiplexer at three set
// sizes: n session filters over a catch-all, the frame belonging to the
// session installed last.
func BenchmarkSetMatch(b *testing.B) {
	local, remote := wire.IP(10, 0, 0, 1), wire.IP(10, 0, 0, 2)
	for _, n := range []int{1, 16, 1024} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			s := NewSet()
			s.Install(opaquePrograms[0], MatchSpec{}, 0, nil)
			spec := MatchSpec{Proto: wire.ProtoTCP, LocalIP: local, LocalPort: 80, RemoteIP: remote}
			for i := 0; i < n; i++ {
				spec.RemotePort = uint16(1024 + i)
				s.Install(Compile(spec), spec, 1, nil)
			}
			frame := buildFrame(wire.ProtoTCP, remote, local, spec.RemotePort, 80, 0, false, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Match(frame)
			}
		})
	}
}
