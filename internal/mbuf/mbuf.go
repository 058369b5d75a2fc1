// Package mbuf implements BSD-style message buffer chains.
//
// A Chain is a sequence of segments, each viewing a window into a backing
// array. The operations mirror the classic 4.3BSD mbuf routines that the
// protocol stack in this repository is structured around: prepending
// header space (m_prepend), trimming (m_adj), splitting (m_split),
// region copies that share storage (m_copym), pullup (m_pullup), and
// flattening (m_copydata).
//
// Storage discipline: backing arrays come from per-size-class free lists
// (the analogue of BSD's mbuf and cluster pools) and carry a reference
// count, exactly like cluster reference counts. CopyRegion and Split
// share backing storage between chains by taking a reference; a window is
// writable only while its backing array has a single reference, so shared
// bytes are never mutated in place (copy-on-write: Prepend and AppendBytes
// allocate fresh segments instead of growing into shared storage).
//
// Release returns a chain's segments — and, when the last reference
// drops, their backing arrays — to the free lists. Releasing is optional
// for correctness (an abandoned chain is simply garbage collected) but is
// what makes the steady-state data path allocation-free. After Release
// the chain is empty and may be reused; any byte slices previously
// obtained from the chain (Prepend, Writer, Iter) are invalid.
//
// Link frames use the same pools and the same reference counts, with no
// unsafe code: Frame lends a pooled array as a bare slice, and the
// frame's last owner either hands it back (Free) or adopts it into a
// chain (Adopt) whose references return it when the last one drops. A
// frame nobody hands back is garbage collected like an abandoned chain.
// Under the race detector every array is poisoned on its way back into a
// pool.
package mbuf

import (
	"fmt"
	"math/bits"
	"sync"
)

// LeadingSpace is the header room reserved at the front of each allocated
// chain: enough for Ethernet + IPv4 + TCP with options.
const LeadingSpace = 64

// Backing arrays are pooled in power-of-two size classes from 128 bytes
// to 64 KB; larger (or externally supplied) storage bypasses the pools.
const (
	minClassBits = 7
	maxClassBits = 16
	numClasses   = maxClassBits - minClassBits + 1
)

// buf is a reference-counted backing array. refs counts the segments
// (across all chains) whose windows view it; it is manipulated without
// atomics because the simulator is logically single-threaded.
type buf struct {
	b     []byte
	refs  int32
	class int8 // pool index; -1 for unpooled storage
}

var bufPools [numClasses]sync.Pool

var segPool = sync.Pool{New: func() any { return new(seg) }}

// classFor returns the pool class whose arrays hold at least n bytes, or
// -1 when n exceeds the largest class.
func classFor(n int) int {
	if n <= 1<<minClassBits {
		return 0
	}
	if n > 1<<maxClassBits {
		return -1
	}
	return bits.Len(uint(n-1)) - minClassBits
}

// getBuf returns a backing array with capacity for at least n bytes and
// one reference. Pooled arrays are returned with whatever bytes they last
// held; callers must write every byte they expose.
func getBuf(n int) *buf {
	cl := classFor(n)
	if cl < 0 {
		return &buf{b: make([]byte, n), refs: 1, class: -1}
	}
	if v := bufPools[cl].Get(); v != nil {
		b := v.(*buf)
		b.refs = 1
		return b
	}
	return &buf{b: make([]byte, 1<<(uint(cl)+minClassBits)), refs: 1, class: int8(cl)}
}

func (b *buf) retain() { b.refs++ }

func (b *buf) release() {
	b.refs--
	if b.refs == 0 && b.class >= 0 {
		if raceEnabled {
			for i := range b.b {
				b.b[i] = 0xdb
			}
		}
		bufPools[b.class].Put(b)
	}
}

// husks holds the buffers whose arrays Frame lent out, so that a frame
// coming back is re-wrapped without allocating.
var husks = sync.Pool{New: func() any { return new(buf) }}

// Frame lends n bytes of pooled storage for a link frame. Like every
// pooled array it holds whatever it last held: the caller must write all
// n bytes. The frame's last owner hands it back with Free or Adopt.
func Frame(n int) []byte {
	b := getBuf(n)
	if b.class < 0 {
		return b.b
	}
	f := b.b[:n]
	b.b = nil
	husks.Put(b)
	return f
}

// wrap returns a buffer holding f's array with one reference.
func wrap(f []byte) *buf {
	cl := exactClass(cap(f))
	if cl < 0 {
		return &buf{b: f[:cap(f)], refs: 1, class: -1}
	}
	b := husks.Get().(*buf)
	b.b, b.refs, b.class = f[:cap(f)], 1, int8(cl)
	return b
}

// exactClass returns the class of an array of exactly n bytes, such as
// every array Frame lends, or -1: other storage is never pooled.
func exactClass(n int) int {
	if cl := classFor(n); cl >= 0 && n == 1<<(cl+minClassBits) {
		return cl
	}
	return -1
}

// Free hands back a frame its caller owns and that no chain references;
// the caller must not touch it again.
func Free(f []byte) {
	if exactClass(cap(f)) >= 0 {
		wrap(f).release()
	}
}

// Adopt appends f, a frame the caller owns, as a segment holding its
// storage's one reference: when that reference and every one shared
// from it (CopyRegion, Split) have dropped, the array goes back to its
// pool. The caller gives f up.
func (c *Chain) Adopt(f []byte) {
	if len(f) > 0 {
		c.appendSeg(newSeg(wrap(f), 0, len(f)))
	}
}

// seg is one window into a backing array. owner is nil for external
// storage (FromBytes / AppendAlias), which is treated as immutable and is
// never pooled.
type seg struct {
	b     []byte // owner.b, or the external slice
	owner *buf
	off   int // start of the data window within b
	n     int // window length
	next  *seg
}

// writable reports whether the window's storage may be mutated or grown:
// the segment must own its backing array and be its sole reference.
func (s *seg) writable() bool { return s.owner != nil && s.owner.refs == 1 }

// newSeg takes a pooled segment viewing [off, off+n) of b.
func newSeg(b *buf, off, n int) *seg {
	s := segPool.Get().(*seg)
	s.b, s.owner, s.off, s.n, s.next = b.b, b, off, n, nil
	return s
}

// newAliasSeg takes a pooled segment viewing external storage.
func newAliasSeg(b []byte) *seg {
	s := segPool.Get().(*seg)
	s.b, s.owner, s.off, s.n, s.next = b, nil, 0, len(b), nil
	return s
}

// recycle drops the segment's buffer reference and returns it to the
// segment pool.
func (s *seg) recycle() {
	if s.owner != nil {
		s.owner.release()
	}
	*s = seg{}
	segPool.Put(s)
}

// Chain is a list of buffer segments holding a packet or a byte stream
// region. The zero value is an empty chain ready for use.
type Chain struct {
	head   *seg
	tail   *seg
	length int
}

// New returns an empty chain.
func New() *Chain { return &Chain{} }

// Alloc returns a chain of n zero bytes with LeadingSpace of header room.
func Alloc(n int) *Chain {
	if n < 0 {
		panic("mbuf: negative length")
	}
	b := getBuf(LeadingSpace + n)
	off := len(b.b) - n
	s := newSeg(b, off, n)
	clear(s.b[off:])
	return &Chain{head: s, tail: s, length: n}
}

// FromBytes returns a chain viewing b directly (no copy, no header room).
// The caller must not mutate b afterwards.
func FromBytes(b []byte) *Chain {
	if len(b) == 0 {
		return New()
	}
	s := newAliasSeg(b)
	return &Chain{head: s, tail: s, length: len(b)}
}

// FromBytesCopy returns a chain holding a copy of b, with header room.
func FromBytesCopy(b []byte) *Chain {
	if len(b) == 0 {
		return Alloc(0)
	}
	nb := getBuf(LeadingSpace + len(b))
	off := len(nb.b) - len(b)
	s := newSeg(nb, off, len(b))
	copy(s.b[off:], b)
	return &Chain{head: s, tail: s, length: len(b)}
}

// Len returns the number of bytes in the chain.
func (c *Chain) Len() int { return c.length }

// Segments returns the number of segments in the chain.
func (c *Chain) Segments() int {
	n := 0
	for s := c.head; s != nil; s = s.next {
		n++
	}
	return n
}

// Release returns every segment — and each backing array whose last
// reference drops — to the free lists, leaving the chain empty and
// reusable. Byte slices previously obtained from the chain are invalid
// after Release.
func (c *Chain) Release() {
	for s := c.head; s != nil; {
		next := s.next
		s.recycle()
		s = next
	}
	c.head, c.tail, c.length = nil, nil, 0
}

// Iter is a zero-allocation iterator over a chain's segment windows.
type Iter struct{ s *seg }

// Iter returns an iterator positioned at the first segment.
func (c *Chain) Iter() Iter { return Iter{c.head} }

// Next returns the next segment's bytes, or false when exhausted. The
// returned slice must be treated as read-only.
func (it *Iter) Next() ([]byte, bool) {
	s := it.s
	if s == nil {
		return nil, false
	}
	it.s = s.next
	return s.b[s.off : s.off+s.n], true
}

// Prepend grows the chain by n bytes at the front and returns a writable
// slice covering exactly those bytes (contents undefined; the caller must
// write all of them). It uses leading space in the first segment when
// available and unshared; otherwise it takes a fresh pooled segment.
func (c *Chain) Prepend(n int) []byte {
	if n < 0 {
		panic("mbuf: negative prepend")
	}
	if n == 0 {
		return nil
	}
	if s := c.head; s != nil && s.writable() && s.off >= n {
		s.off -= n
		s.n += n
		c.length += n
		return s.b[s.off : s.off+n]
	}
	b := getBuf(LeadingSpace + n)
	off := len(b.b) - n
	s := newSeg(b, off, n)
	s.next = c.head
	if c.head == nil {
		c.tail = s
	}
	c.head = s
	c.length += n
	return s.b[off:]
}

// AppendBytes copies b onto the end of the chain, growing into the tail
// segment's spare capacity when it is unshared.
func (c *Chain) AppendBytes(b []byte) {
	for len(b) > 0 {
		if s := c.tail; s != nil && s.writable() {
			if room := len(s.b) - (s.off + s.n); room > 0 {
				take := copy(s.b[s.off+s.n:], b)
				s.n += take
				c.length += take
				b = b[take:]
				continue
			}
		}
		nb := getBuf(len(b))
		s := newSeg(nb, 0, 0)
		c.appendSeg(s)
		// Loop fills it via the tail-extension path above.
	}
}

// AppendAlias appends a segment viewing b directly (no copy). The caller
// must not mutate b afterwards; the chain treats it as immutable.
func (c *Chain) AppendAlias(b []byte) {
	if len(b) == 0 {
		return
	}
	c.appendSeg(newAliasSeg(b))
}

// AppendChain moves all of d's segments onto the end of c. d is emptied.
func (c *Chain) AppendChain(d *Chain) {
	if d == nil || d.head == nil {
		return
	}
	if c.head == nil {
		c.head, c.tail = d.head, d.tail
	} else {
		c.tail.next = d.head
		c.tail = d.tail
	}
	c.length += d.length
	d.head, d.tail, d.length = nil, nil, 0
}

func (c *Chain) appendSeg(s *seg) {
	if c.head == nil {
		c.head, c.tail = s, s
	} else {
		c.tail.next = s
		c.tail = s
	}
	c.length += s.n
}

// TrimFront removes n bytes from the front of the chain (m_adj with a
// positive count), recycling fully-consumed segments. Trimming more than
// the length empties the chain.
func (c *Chain) TrimFront(n int) {
	if n < 0 {
		panic("mbuf: negative trim")
	}
	for n > 0 && c.head != nil {
		s := c.head
		if n < s.n {
			s.off += n
			s.n -= n
			c.length -= n
			return
		}
		n -= s.n
		c.length -= s.n
		c.head = s.next
		s.recycle()
	}
	if c.head == nil {
		c.tail = nil
	}
}

// TrimBack removes n bytes from the end of the chain (m_adj with a
// negative count), recycling dropped segments.
func (c *Chain) TrimBack(n int) {
	if n < 0 {
		panic("mbuf: negative trim")
	}
	if n >= c.length {
		c.Release()
		return
	}
	keep := c.length - n
	s := c.head
	seen := 0
	for ; s != nil; s = s.next {
		if seen+s.n >= keep {
			break
		}
		seen += s.n
	}
	s.n = keep - seen
	for d := s.next; d != nil; {
		next := d.next
		d.recycle()
		d = next
	}
	s.next = nil
	c.tail = s
	c.length = keep
}

// Split truncates c to its first n bytes and returns a new chain holding
// the remainder. If n >= Len, the remainder is empty. A split inside a
// segment shares its backing array between the halves (both become
// read-only until one side is released).
func (c *Chain) Split(n int) *Chain {
	if n < 0 {
		panic("mbuf: negative split")
	}
	if n >= c.length {
		return New()
	}
	rest := New()
	s := c.head
	seen := 0
	var prev *seg
	for s != nil && seen+s.n <= n {
		seen += s.n
		prev = s
		s = s.next
	}
	// s is the segment containing the split point (seen <= n < seen+s.n).
	within := n - seen
	if within == 0 {
		// Clean segment boundary: move s..tail to rest.
		rest.head, rest.tail = s, c.tail
		rest.length = c.length - n
		if prev == nil {
			c.head, c.tail = nil, nil
		} else {
			prev.next = nil
			c.tail = prev
		}
		c.length = n
		return rest
	}
	// Split inside s: the two halves share the backing array.
	var right *seg
	if s.owner != nil {
		s.owner.retain()
		right = newSeg(s.owner, s.off+within, s.n-within)
	} else {
		right = newAliasSeg(s.b[s.off+within : s.off+s.n])
	}
	right.next = s.next
	s.n = within
	s.next = nil
	rest.head = right
	if right.next == nil {
		rest.tail = right
	} else {
		rest.tail = c.tail
	}
	rest.length = c.length - n
	c.tail = s
	c.length = n
	return rest
}

// CopyRegion returns a new chain viewing bytes [off, off+n) of c. The new
// chain shares backing storage with c (reference-counted, so neither side
// mutates the shared windows), making retransmission copies cheap as in
// m_copym.
func (c *Chain) CopyRegion(off, n int) *Chain {
	out := New()
	c.CopyRegionInto(out, off, n)
	return out
}

// CopyRegionInto appends a storage-sharing view of bytes [off, off+n) of
// c onto out. With a reused (Released) chain as out, steady-state segment
// construction allocates nothing.
func (c *Chain) CopyRegionInto(out *Chain, off, n int) {
	if off < 0 || n < 0 || off+n > c.length {
		panic(fmt.Sprintf("mbuf: CopyRegion(%d, %d) out of range (len %d)", off, n, c.length))
	}
	if n == 0 {
		return
	}
	s := c.head
	// Skip to the segment containing off.
	for off >= s.n {
		off -= s.n
		s = s.next
	}
	for n > 0 {
		take := s.n - off
		if take > n {
			take = n
		}
		var ns *seg
		if s.owner != nil {
			s.owner.retain()
			ns = newSeg(s.owner, s.off+off, take)
		} else {
			ns = newAliasSeg(s.b[s.off+off : s.off+off+take])
		}
		out.appendSeg(ns)
		n -= take
		off = 0
		s = s.next
	}
}

// ReadAt copies min(len(p), Len-off) bytes starting at offset off into p
// and returns the count (m_copydata).
func (c *Chain) ReadAt(p []byte, off int) int {
	if off < 0 {
		panic("mbuf: negative offset")
	}
	if off >= c.length {
		return 0
	}
	s := c.head
	for off >= s.n {
		off -= s.n
		s = s.next
	}
	total := 0
	for s != nil && total < len(p) {
		n := copy(p[total:], s.b[s.off+off:s.off+s.n])
		total += n
		off = 0
		s = s.next
	}
	return total
}

// Bytes returns a flattened copy of the chain's contents.
func (c *Chain) Bytes() []byte {
	out := make([]byte, c.length)
	c.ReadAt(out, 0)
	return out
}

// unshare replaces the segment's window with a private copy in a fresh
// pooled backing array, dropping the reference to the shared (or
// external) storage. Afterwards the segment is writable.
func (s *seg) unshare() {
	b := getBuf(s.n)
	copy(b.b, s.b[s.off:s.off+s.n])
	if s.owner != nil {
		s.owner.release()
	}
	s.b, s.owner, s.off = b.b, b, 0
}

// WriteAt copies p into the chain at offset off with copy-on-write
// semantics: any segment in the target range whose storage is shared
// (refcount > 1) or external (FromBytes/AppendAlias) is first replaced
// by a private copy, so other chains viewing the same storage — a
// retransmission queue, a spliced peer, the socket receive buffer a
// RecvPeek view aliases — never observe the write. It panics if the
// range [off, off+len(p)) is not inside the chain.
func (c *Chain) WriteAt(p []byte, off int) {
	if off < 0 || off+len(p) > c.length {
		panic(fmt.Sprintf("mbuf: WriteAt(%d bytes, off %d) out of range (len %d)", len(p), off, c.length))
	}
	if len(p) == 0 {
		return
	}
	s := c.head
	for off >= s.n {
		off -= s.n
		s = s.next
	}
	for len(p) > 0 {
		if !s.writable() {
			s.unshare()
		}
		n := copy(s.b[s.off+off:s.off+s.n], p)
		p = p[n:]
		off = 0
		s = s.next
	}
}

// Clone returns a storage-sharing copy of the entire chain.
func (c *Chain) Clone() *Chain {
	if c.length == 0 {
		return New()
	}
	return c.CopyRegion(0, c.length)
}

// Writer returns a writable flat view of the first n bytes if they are
// contiguous and unshared; otherwise it returns nil. Header fixups
// (for example checksum patching) use this to avoid copies.
func (c *Chain) Writer(n int) []byte {
	s := c.head
	if s == nil || !s.writable() || s.n < n {
		return nil
	}
	return s.b[s.off : s.off+n]
}
