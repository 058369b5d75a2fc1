package mbuf

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAllocAndBytes(t *testing.T) {
	c := Alloc(10)
	if c.Len() != 10 {
		t.Fatalf("Len = %d", c.Len())
	}
	if !bytes.Equal(c.Bytes(), make([]byte, 10)) {
		t.Fatal("Alloc not zeroed")
	}
}

func TestPrependUsesLeadingSpace(t *testing.T) {
	c := FromBytesCopy([]byte("payload"))
	hdr := c.Prepend(4)
	copy(hdr, "HDR:")
	if c.Segments() != 1 {
		t.Fatalf("prepend into leading space should not add a segment, got %d", c.Segments())
	}
	if got := string(c.Bytes()); got != "HDR:payload" {
		t.Fatalf("got %q", got)
	}
}

func TestPrependAllocatesWhenShared(t *testing.T) {
	c := FromBytes([]byte("payload"))
	orig := append([]byte(nil), "payload"...)
	hdr := c.Prepend(4)
	copy(hdr, "HDR:")
	if got := string(c.Bytes()); got != "HDR:payload" {
		t.Fatalf("got %q", got)
	}
	// The original backing array must be untouched.
	if !bytes.Equal(orig, []byte("payload")) {
		t.Fatal("prepend scribbled on shared storage")
	}
}

func TestPrependBeyondLeadingSpace(t *testing.T) {
	c := FromBytesCopy([]byte("x"))
	big := c.Prepend(LeadingSpace + 10)
	for i := range big {
		big[i] = 'A'
	}
	want := append(bytes.Repeat([]byte("A"), LeadingSpace+10), 'x')
	if !bytes.Equal(c.Bytes(), want) {
		t.Fatal("large prepend wrong")
	}
}

func TestTrimFrontAcrossSegments(t *testing.T) {
	c := New()
	c.AppendBytes([]byte("abc"))
	c.AppendBytes([]byte("defg"))
	c.AppendBytes([]byte("hi"))
	c.TrimFront(4)
	if got := string(c.Bytes()); got != "efghi" {
		t.Fatalf("got %q", got)
	}
	c.TrimFront(100)
	if c.Len() != 0 || c.Segments() != 0 {
		t.Fatal("over-trim should empty the chain")
	}
}

func TestTrimBackAcrossSegments(t *testing.T) {
	c := New()
	c.AppendBytes([]byte("abc"))
	c.AppendBytes([]byte("defg"))
	c.AppendBytes([]byte("hi"))
	c.TrimBack(3)
	if got := string(c.Bytes()); got != "abcdef" {
		t.Fatalf("got %q", got)
	}
	c.TrimBack(6)
	if c.Len() != 0 {
		t.Fatal("full trim should empty")
	}
}

func TestSplitAtSegmentBoundary(t *testing.T) {
	c := New()
	c.AppendBytes([]byte("abc"))
	c.AppendBytes([]byte("def"))
	rest := c.Split(3)
	if string(c.Bytes()) != "abc" || string(rest.Bytes()) != "def" {
		t.Fatalf("split got %q / %q", c.Bytes(), rest.Bytes())
	}
}

func TestSplitMidSegment(t *testing.T) {
	c := FromBytesCopy([]byte("abcdef"))
	rest := c.Split(2)
	if string(c.Bytes()) != "ab" || string(rest.Bytes()) != "cdef" {
		t.Fatalf("split got %q / %q", c.Bytes(), rest.Bytes())
	}
}

func TestCopyRegionSharesStorage(t *testing.T) {
	c := New()
	c.AppendBytes([]byte("hello "))
	c.AppendBytes([]byte("world"))
	r := c.CopyRegion(3, 6)
	if string(r.Bytes()) != "lo wor" {
		t.Fatalf("got %q", r.Bytes())
	}
	// Prepending to the copy must not corrupt the original.
	copy(r.Prepend(2), "XX")
	if string(c.Bytes()) != "hello world" {
		t.Fatal("CopyRegion prepend corrupted source")
	}
}

func TestReadAtOffsets(t *testing.T) {
	c := New()
	c.AppendBytes([]byte("0123"))
	c.AppendBytes([]byte("4567"))
	buf := make([]byte, 3)
	if n := c.ReadAt(buf, 3); n != 3 || string(buf) != "345" {
		t.Fatalf("ReadAt = %d %q", n, buf)
	}
	if n := c.ReadAt(buf, 7); n != 1 || buf[0] != '7' {
		t.Fatalf("tail ReadAt = %d %q", n, buf[:n])
	}
	if n := c.ReadAt(buf, 8); n != 0 {
		t.Fatalf("past-end ReadAt = %d", n)
	}
}

func TestAppendChainMoves(t *testing.T) {
	a := FromBytesCopy([]byte("aa"))
	b := FromBytesCopy([]byte("bb"))
	a.AppendChain(b)
	if string(a.Bytes()) != "aabb" || b.Len() != 0 {
		t.Fatalf("AppendChain: a=%q bLen=%d", a.Bytes(), b.Len())
	}
}

func TestWriter(t *testing.T) {
	c := FromBytesCopy([]byte("abcdef"))
	w := c.Writer(3)
	if w == nil {
		t.Fatal("Writer returned nil on private contiguous chain")
	}
	copy(w, "XYZ")
	if string(c.Bytes()) != "XYZdef" {
		t.Fatal("Writer not visible")
	}
	shared := c.Clone()
	if shared.Writer(3) != nil {
		t.Fatal("Writer must refuse shared segments")
	}
}

// model is a reference implementation over a flat []byte.
type model struct{ b []byte }

func (m *model) trimFront(n int) {
	if n > len(m.b) {
		n = len(m.b)
	}
	m.b = m.b[n:]
}
func (m *model) trimBack(n int) {
	if n > len(m.b) {
		n = len(m.b)
	}
	m.b = m.b[:len(m.b)-n]
}

// TestQuickChainMatchesModel drives random operation sequences against both
// the chain and a flat-slice model and requires identical observable state.
func TestQuickChainMatchesModel(t *testing.T) {
	f := func(seed int64, ops []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New()
		m := &model{}
		for _, op := range ops {
			switch op % 5 {
			case 0: // append
				n := rng.Intn(20)
				data := make([]byte, n)
				rng.Read(data)
				c.AppendBytes(data)
				m.b = append(m.b, data...)
			case 1: // prepend
				n := rng.Intn(10)
				data := make([]byte, n)
				rng.Read(data)
				copy(c.Prepend(n), data)
				m.b = append(append([]byte{}, data...), m.b...)
			case 2: // trim front
				n := rng.Intn(15)
				c.TrimFront(n)
				m.trimFront(n)
			case 3: // trim back
				n := rng.Intn(15)
				c.TrimBack(n)
				m.trimBack(n)
			case 4: // split and re-append (round trip)
				if c.Len() > 0 {
					n := rng.Intn(c.Len() + 1)
					rest := c.Split(n)
					if c.Len() != n {
						return false
					}
					c.AppendChain(rest)
				}
			}
			if c.Len() != len(m.b) {
				return false
			}
			if !bytes.Equal(c.Bytes(), m.b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCopyRegionMatchesSlice checks CopyRegion against slicing.
func TestQuickCopyRegionMatchesSlice(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New()
		var flat []byte
		for i := 0; i < 1+rng.Intn(5); i++ {
			n := rng.Intn(30)
			data := make([]byte, n)
			rng.Read(data)
			c.AppendBytes(data)
			flat = append(flat, data...)
		}
		if len(flat) == 0 {
			return c.Len() == 0
		}
		off := rng.Intn(len(flat))
		n := rng.Intn(len(flat) - off)
		r := c.CopyRegion(off, n)
		return bytes.Equal(r.Bytes(), flat[off:off+n])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCopyRegionOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromBytesCopy([]byte("abc")).CopyRegion(1, 5)
}

func BenchmarkPrependHeader(b *testing.B) {
	payload := make([]byte, 1460)
	for i := 0; i < b.N; i++ {
		c := FromBytesCopy(payload)
		copy(c.Prepend(20), payload[:20])
		copy(c.Prepend(20), payload[:20])
		copy(c.Prepend(14), payload[:14])
	}
}

func BenchmarkCopyRegion(b *testing.B) {
	c := New()
	for i := 0; i < 16; i++ {
		c.AppendBytes(make([]byte, 8192))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.CopyRegion(37*1000%c.Len(), 1460)
	}
}
