package sim

import (
	"testing"
	"unsafe"
)

// TestFreeIsLIFO: Get hands back the record put most recently, clears
// the slot it pops, and returns nil from an empty list.
func TestFreeIsLIFO(t *testing.T) {
	var f Free[int]
	if r := f.Get(); r != nil {
		t.Fatalf("Get on an empty list = %p, want nil", r)
	}
	a, b, c := new(int), new(int), new(int)
	f.Put(a)
	f.Put(b)
	f.Put(c)
	for i, want := range []*int{c, b, a} {
		if got := f.Get(); got != want {
			t.Fatalf("Get #%d = %p, want %p", i, got, want)
		}
		if n := len(f.list); n != 2-i || f.list[:cap(f.list)][n] != nil {
			t.Fatalf("after Get #%d: len %d (want %d), popped slot %p (want nil)", i, n, 2-i, f.list[:cap(f.list)][n])
		}
	}
	if r := f.Get(); r != nil {
		t.Fatalf("Get after draining = %p, want nil", r)
	}
}

// TestFreeAllocatesNothingWarm: once the list has held a record, handing
// it back and taking it again allocates nothing, the race build's check
// included.
func TestFreeAllocatesNothingWarm(t *testing.T) {
	var f Free[event]
	ev := new(event)
	f.Put(ev)
	if n := testing.AllocsPerRun(1000, func() {
		f.Put(f.Get())
	}); n != 0 {
		t.Fatalf("warm Get/Put allocates %v times, want 0", n)
	}
}

// TestFreeHasNoPadding: the check field adds exactly its own size, which
// is zero outside the race build, where a Free is the slice it replaced.
func TestFreeHasNoPadding(t *testing.T) {
	if got, want := unsafe.Sizeof(Free[event]{}), unsafe.Sizeof(freeCheck[event]{})+unsafe.Sizeof([]*event(nil)); got != want {
		t.Fatalf("Free is %d B, want %d", got, want)
	}
}
