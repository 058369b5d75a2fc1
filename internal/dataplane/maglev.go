package dataplane

import "repro/internal/wire"

// Maglev-style consistent hashing (Eisenbud et al., NSDI '16 §3.4): each
// backend fills a prime-sized lookup table by walking its own
// pseudo-random permutation of the slots, taking turns, so the table is
// (a) near-uniformly split across backends and (b) minimally disrupted
// when the backend set changes — most slots keep their backend when one
// is added or removed, and conntrack pins the rest.

// DefaultTableSize is the default Maglev lookup-table size. Prime, as
// the permutation construction requires; small because the simulated
// pools are small (the paper-scale value is 65537).
const DefaultTableSize = 251

// fnv1a is the 64-bit FNV-1a hash of the given bytes, the deterministic
// hash behind both the permutation parameters and the flow hash.
func fnv1a(seed uint64, parts ...[]byte) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037) ^ seed
	for _, p := range parts {
		for _, b := range p {
			h ^= uint64(b)
			h *= prime
		}
	}
	return h
}

// maglevTable builds the lookup table for the given backend keys.
// Returns a table mapping slot -> index into keys, or nil when keys is
// empty. m must be prime.
func maglevTable(keys []string, m int) []int {
	if len(keys) == 0 {
		return nil
	}
	type perm struct {
		offset, skip, next int
	}
	perms := make([]perm, len(keys))
	for i, k := range keys {
		kb := []byte(k)
		perms[i].offset = int(fnv1a(0xcafe, kb) % uint64(m))
		perms[i].skip = int(fnv1a(0xbeef, kb)%uint64(m-1)) + 1
	}
	table := make([]int, m)
	for i := range table {
		table[i] = -1
	}
	filled := 0
	for filled < m {
		for i := range perms {
			p := &perms[i]
			// Walk backend i's permutation to its next free slot.
			var slot int
			for {
				slot = (p.offset + p.next*p.skip) % m
				p.next++
				if table[slot] < 0 {
					break
				}
			}
			table[slot] = i
			filled++
			if filled == m {
				break
			}
		}
	}
	return table
}

// flowHash hashes a connection's initiator-side identity. Only the
// client address and port (plus protocol) feed the hash, so a client's
// retransmitted SYN hashes identically even after the table is rebuilt.
func flowHash(t wire.Flow) uint64 {
	return fnv1a(uint64(t.Proto),
		t.Src[:], []byte{byte(t.SrcPort >> 8), byte(t.SrcPort)},
		t.Dst[:], []byte{byte(t.DstPort >> 8), byte(t.DstPort)})
}
