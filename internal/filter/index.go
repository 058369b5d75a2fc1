package filter

// The index: what running every compiled program over a frame computes,
// without running them. Compile tests its fields in one fixed order
// (fields, compile.go), an absent field being no test, so the compiled
// programs of a set form a trie on that order, and running all of them
// over a frame is one descent that follows, per field, the edge labelled
// with the frame's value and the "not tested" edge. The trie is stored
// flat: one map entry per prefix of a program's test sequence, counting
// the programs that share it; a leaf also heads the list of programs
// with exactly those tests, in match order, chained through Filter.next.

// prefixKey names a trie node: the values of the fields tested so far
// (at the word and shift the fields table gives them), which of the
// fields so far are tested at all (bit hasShift+i), and the depth.
type prefixKey [2]uint64

const hasShift = 3 // bits 0-2 of word 1 hold the depth

// child is the key one level down from k at field i: along the edge
// labelled v if the field is tested, along the "not tested" edge if not.
func (k prefixKey) child(i int, v uint32, tested bool) prefixKey {
	if tested {
		k[fields[i].word] |= uint64(v) << fields[i].shift
		k[1] |= 1 << (hasShift + i)
	}
	k[1]++
	return k
}

// node is a trie node: n programs run through it; a leaf's head is the
// first of them in match order.
type node struct {
	n    int
	head *Filter
}

// reindex adds (delta 1) or removes (delta -1) an indexed filter.
func (s *Set) reindex(f *Filter, delta int) {
	s.indexed += delta
	var k prefixKey
	for i := range fields {
		if !f.tup.tests(i) {
			s.untested[i] += delta
		}
		k = k.child(i, f.tup.val[i], f.tup.tests(i))
		nd := s.index[k]
		nd.n += delta
		if i == nFields-1 {
			// Equal-test programs stay in match order, so the head is the
			// one the walk reaches first. The order is total: passing all
			// that is ahead of f stops at f if linked, at its place if not.
			p := &nd.head
			for *p != nil && order(*p, f) < 0 {
				p = &(*p).next
			}
			if delta > 0 {
				f.next, *p = *p, f
			} else {
				*p, f.next = f.next, nil
			}
		}
		if nd.n == 0 {
			delete(s.index, k)
		} else {
			s.index[k] = nd
		}
	}
}

// descent is one frame's way down the trie: examined is the high-water
// mark of the loads all indexed programs together make on pkt, best the
// first of them in match order to accept it.
type descent struct {
	s        *Set
	pkt      []byte
	examined int
	best     *Filter
}

func (d *descent) run() {
	for _, g := range gates {
		v, ok := g.load(d.pkt)
		if !ok {
			return
		}
		d.examined = g.end()
		if v != g.want {
			return
		}
	}
	d.visit(prefixKey{}, 0, node{n: d.s.indexed})
}

// visit continues from node nd (key k), whose programs have passed
// every test before field i. A program loads a field before it compares
// it, so the field counts as examined iff some program through nd tests
// it — whatever value it tests for — and the load is in bounds; a load
// past the end rejects without having examined anything.
func (d *descent) visit(k prefixKey, i int, nd node) {
	if i == nFields {
		if d.best == nil || order(nd.head, d.best) < 0 {
			d.best = nd.head
		}
		return
	}
	var skip node // the programs through nd that do not test field i
	if d.s.untested[i] > 0 {
		skip = d.s.index[k.child(i, 0, false)]
	}
	if nd.n > skip.n {
		if v, ok := fields[i].load(d.pkt); ok {
			d.examined = max(d.examined, fields[i].end())
			kc := k.child(i, v, true)
			if c := d.s.index[kc]; c.n > 0 {
				d.visit(kc, i+1, c)
			}
		}
	}
	if skip.n > 0 {
		d.visit(k.child(i, 0, false), i+1, skip)
	}
}
