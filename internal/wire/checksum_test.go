package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mbuf"
)

// refChecksum is RFC 1071's checksum computed the naive way: big-endian
// byte pairs (a trailing odd byte padded with zero) added one at a time
// with the end-around carry folded in at once.
func refChecksum(b []byte) uint16 {
	var s uint32
	for i := 0; i < len(b); i += 2 {
		w := uint32(b[i]) << 8
		if i+1 < len(b) {
			w |= uint32(b[i+1])
		}
		s += w
		s = s&0xffff + s>>16
	}
	return ^uint16(s)
}

// splitSum feeds data to a Checksummer in the pieces cuts gives — each
// cut's low 7 bits are the next piece's length, modulo what is left —
// and, where a cut's high bit is set and the bytes so far are even,
// first folds in a 16-bit word (AddUint16) or, alternating, a
// pseudo-header. It returns the checksum and the byte stream the
// reference must sum to agree.
func splitSum(data, cuts []byte) (uint16, []byte) {
	var c Checksummer
	var flat []byte
	words := 0
	for _, cut := range cuts {
		if cut&0x80 != 0 && len(flat)%2 == 0 {
			if words++; words%2 == 1 {
				v := uint16(cut)<<8 | uint16(len(flat))
				c.AddUint16(v)
				flat = append(flat, byte(v>>8), byte(v))
			} else {
				src, dst := IP(10, cut, 0, 1), IP(192, 168, byte(len(flat)), cut)
				c.PseudoHeader(src, dst, ProtoTCP, uint16(len(data)))
				flat = append(flat, src[:]...)
				flat = append(flat, dst[:]...)
				flat = append(flat, 0, ProtoTCP, byte(len(data)>>8), byte(len(data)))
			}
		}
		n := int(cut&0x7f) % (len(data) + 1)
		c.Add(data[:n])
		flat = append(flat, data[:n]...)
		data = data[n:]
	}
	c.Add(data)
	flat = append(flat, data...)
	return c.Sum(), flat
}

// TestChecksumMatchesReference pins the word-wide Checksummer to the
// naive reference: every length up to 3000 in random pieces (odd ones
// included) with 16-bit words and pseudo-headers interleaved, the fused
// copy over the same pieces as a chain, and all-zero and all-0xff
// buffers and words whose fold carries, where a wrong fold would turn
// 0x0000 into 0xffff or back.
func TestChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1071))
	for n := 0; n <= 3000; n++ {
		data := make([]byte, n)
		rng.Read(data)
		if got, want := Checksum(data), refChecksum(data); got != want {
			t.Fatalf("len %d whole: %#04x, reference %#04x", n, got, want)
		}

		cuts := make([]byte, rng.Intn(12))
		rng.Read(cuts)
		got, flat := splitSum(data, cuts)
		if want := refChecksum(flat); got != want {
			t.Fatalf("len %d cuts %v: %#04x, reference %#04x", n, cuts, got, want)
		}

		ch := mbuf.New()
		for rest := data; len(rest) > 0; {
			k := 1 + rng.Intn(min(len(rest), 200))
			ch.AppendBytes(rest[:k])
			rest = rest[k:]
		}
		dst := make([]byte, n)
		var c Checksummer
		if c.CopyAndSum(dst, ch); !bytes.Equal(dst, data) || c.Sum() != refChecksum(data) {
			t.Fatalf("len %d: CopyAndSum copied or summed wrong", n)
		}
		ch.Release()
	}

	// 8-byte words whose 16-bit fold carries at every step, the last
	// step included (0xffffffff00010000), after zeros that make the
	// slice long enough for the 64-bit kernel.
	for _, w := range []uint64{0xffffffff00010000, 0xffffffffffffffff, 0x00000001ffffffff, 0xfffffffe00000001, 0x0001fffffffeffff} {
		data := binary.LittleEndian.AppendUint64(make([]byte, 56), w)
		if got, want := Checksum(data), refChecksum(data); got != want {
			t.Fatalf("word %#016x: %#04x, reference %#04x", w, got, want)
		}
	}

	for _, fill := range []byte{0x00, 0xff} {
		for n := 0; n <= 1500; n++ {
			data := bytes.Repeat([]byte{fill}, n)
			if got, want := Checksum(data), refChecksum(data); got != want {
				t.Fatalf("%d bytes of %#02x: %#04x, reference %#04x", n, fill, got, want)
			}
			got, flat := splitSum(data, []byte{byte(n % 7), 0x80 | byte(n%13), 3})
			if want := refChecksum(flat); got != want {
				t.Fatalf("%d bytes of %#02x, split: %#04x, reference %#04x", n, fill, got, want)
			}
		}
	}
}

// FuzzChecksumSplit checks the same agreement on fuzzed bytes, pieces
// and interleaved words.
func FuzzChecksumSplit(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0xff, 0xff, 0xff}, []byte{1, 0x81})
	f.Add(bytes.Repeat([]byte{0xff}, 64), []byte{0x83, 17, 0x80})
	f.Add(make([]byte, 33), []byte{5, 0x8b})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		got, flat := splitSum(data, cuts)
		if want := refChecksum(flat); got != want {
			t.Fatalf("len %d cuts %v: %#04x, reference %#04x", len(data), cuts, got, want)
		}
	})
}

// BenchmarkChecksum covers the sizes the stack sums: 4-byte address
// rewrites, the 20-byte IP header, a small segment, a full one.
func BenchmarkChecksum(b *testing.B) {
	for _, n := range []int{4, 20, 64, 1460} {
		data := make([]byte, n)
		rand.New(rand.NewSource(1)).Read(data)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				sink16 = Checksum(data)
			}
		})
	}
}

var sink16 uint16
