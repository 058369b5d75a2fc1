package filter

import "testing"

// prog builds a trivial program accepting iff the first packet byte
// equals want.
func progByte0(want uint32) Program {
	return Program{
		{OpLoad8, 0},
		{OpPushLit, want},
		{OpEq, 0},
		{OpRet, 0},
	}
}

func TestChainFirstMatchVerdict(t *testing.T) {
	c := NewChain()
	if _, err := c.Append(progByte0(1), VerdictDrop); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(progByte0(2), VerdictAbsorb); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Append(progByte0(2), VerdictDrop); err != nil { // shadowed
		t.Fatal(err)
	}

	cases := []struct {
		pkt     []byte
		want    Verdict
		matched bool
	}{
		{[]byte{1}, VerdictDrop, true},
		{[]byte{2}, VerdictAbsorb, true}, // first match wins over the shadowing rule
		{[]byte{9}, VerdictPass, false},
	}
	for _, tc := range cases {
		v, m := c.Eval(tc.pkt)
		if v != tc.want || m != tc.matched {
			t.Errorf("Eval(%v) = (%v, %v), want (%v, %v)", tc.pkt, v, m, tc.want, tc.matched)
		}
	}
	if c.set.Runs != 3 {
		t.Errorf("Runs = %d, want 3", c.set.Runs)
	}
	// 1 program for pkt[0]=1, 2 for pkt[0]=2, 3 for the miss.
	if c.set.Steps != 6 {
		t.Errorf("Steps = %d, want 6", c.set.Steps)
	}
}

func TestChainInstructionsAndRemove(t *testing.T) {
	c := NewChain()
	id1, _ := c.Append(progByte0(1), VerdictDrop)
	id2, _ := c.Append(progByte0(2), VerdictDrop)
	if c.Len() != 2 || c.Instructions() != 8 {
		t.Fatalf("Len=%d Instructions=%d, want 2/8", c.Len(), c.Instructions())
	}
	if !c.Remove(id1) {
		t.Fatal("Remove(id1) = false")
	}
	if c.Remove(id1) {
		t.Fatal("double Remove(id1) = true")
	}
	if c.Len() != 1 || c.Instructions() != 4 {
		t.Fatalf("after remove: Len=%d Instructions=%d, want 1/4", c.Len(), c.Instructions())
	}
	if v, m := c.Eval([]byte{2}); v != VerdictDrop || !m {
		t.Fatalf("surviving rule %d did not match", id2)
	}
}

func TestChainRejectsInvalidProgram(t *testing.T) {
	c := NewChain()
	if _, err := c.Append(Program{{OpEq, 0}}, VerdictDrop); err == nil {
		t.Fatal("Append accepted a program with stack underflow")
	}
	if c.Len() != 0 || c.Instructions() != 0 {
		t.Fatal("rejected program altered the chain")
	}
}
