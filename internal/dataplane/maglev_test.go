package dataplane

import (
	"fmt"
	"testing"

	"repro/internal/wire"
)

func slotCounts(table []int, n int) []int {
	counts := make([]int, n)
	for _, b := range table {
		counts[b]++
	}
	return counts
}

// TestMaglevDistribution: every backend owns a near-equal share of the
// lookup table (Maglev §3.4's load property).
func TestMaglevDistribution(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("backend-%d", i)
		}
		table := maglevTable(keys, DefaultTableSize)
		if len(table) != DefaultTableSize {
			t.Fatalf("n=%d: table size %d", n, len(table))
		}
		fair := DefaultTableSize / n
		for i, c := range slotCounts(table, n) {
			if c < fair/2 || c > fair*2 {
				t.Errorf("n=%d: backend %d owns %d slots, fair share %d", n, i, c, fair)
			}
		}
	}
}

// TestMaglevDisruption: removing one backend must not reshuffle the
// survivors' slots wholesale — only the dead backend's share (plus a
// small residue) may move.
func TestMaglevDisruption(t *testing.T) {
	const n = 5
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("backend-%d", i)
	}
	before := maglevTable(keys, DefaultTableSize)

	// Remove backend 2; map both tables to key names for comparison.
	survivors := append(append([]string{}, keys[:2]...), keys[3:]...)
	after := maglevTable(survivors, DefaultTableSize)

	moved := 0
	for s := range before {
		ob, nb := keys[before[s]], survivors[after[s]]
		if ob != nb && ob != "backend-2" {
			moved++
		}
	}
	// The necessary churn is the dead backend's ~1/n share; surviving
	// slots that move beyond that are the disruption. Maglev keeps it
	// small — well under one further share.
	if limit := DefaultTableSize / n; moved > limit {
		t.Errorf("%d surviving slots moved, limit %d", moved, limit)
	}
}

// TestMaglevAddDisruption: the mirror property for pool growth.
func TestMaglevAddDisruption(t *testing.T) {
	const n = 4
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("backend-%d", i)
	}
	before := maglevTable(keys, DefaultTableSize)
	grown := append(append([]string{}, keys...), "backend-new")
	after := maglevTable(grown, DefaultTableSize)

	moved := 0
	for s := range before {
		if nb := grown[after[s]]; nb != keys[before[s]] && nb != "backend-new" {
			moved++
		}
	}
	if limit := DefaultTableSize / n; moved > limit {
		t.Errorf("%d slots moved to another old backend, limit %d", moved, limit)
	}
}

// TestMaglevDeterminism: the table is a pure function of its inputs.
func TestMaglevDeterminism(t *testing.T) {
	keys := []string{"a", "b", "c"}
	t1 := maglevTable(keys, DefaultTableSize)
	t2 := maglevTable(keys, DefaultTableSize)
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatal("table not deterministic")
		}
	}
	if maglevTable(nil, DefaultTableSize) != nil {
		t.Fatal("empty pool should yield nil table")
	}
}

// TestFlowHashClientStability: the hash depends only on the wire tuple,
// so a retransmission always lands on the same slot.
func TestFlowHashClientStability(t *testing.T) {
	a := wire.Flow{Src: wire.IP(10, 0, 0, 50), Dst: wire.IP(10, 0, 0, 100), SrcPort: 4000, DstPort: 80, Proto: wire.ProtoTCP}
	if flowHash(a) != flowHash(a) {
		t.Fatal("hash unstable")
	}
	b := a
	b.SrcPort = 4001
	if flowHash(a) == flowHash(b) {
		t.Fatal("distinct clients should (almost surely) hash apart")
	}
}
