package main

import (
	"hash/crc32"
	"math/rand"
	"time"

	"repro/internal/sim"
)

// inputs is the seeded input generator. Everything a workload varies
// between seeds — client start offsets, payload bytes, session visiting
// order, the simulator seed that the fault PRNG streams derive from —
// is drawn here, once, during set-up. The simulator itself only ever
// receives the generated values, so every rep of a run replays the
// identical simulation.
type inputs struct {
	rng *rand.Rand
}

// newInputs keys the stream by (seed, workload) so two workloads run
// with the same -seed draw independent inputs.
func newInputs(seed int64, workload string) *inputs {
	return &inputs{rng: rand.New(rand.NewSource(sim.StreamSeed(seed, "benchmark/"+workload)))}
}

// payload returns n seeded bytes.
func (in *inputs) payload(n int) []byte {
	b := make([]byte, n)
	in.rng.Read(b) // math/rand's Read never fails
	return b
}

// offset returns a client start offset in [min, min+spread).
func (in *inputs) offset(min, spread time.Duration) time.Duration {
	return min + time.Duration(in.rng.Int63n(int64(spread)))
}

// simSeed returns a simulator seed (ISS, ephemeral ports, fault streams).
func (in *inputs) simSeed() int64 { return in.rng.Int63() }

// order returns a seeded permutation of [0, n).
func (in *inputs) order(n int) []int { return in.rng.Perm(n) }

// streamCRC is the rolling checksum a sink must arrive at after
// receiving total bytes of the chunk pattern repeated back to back.
func streamCRC(chunk []byte, total int) uint32 {
	var crc uint32
	for sent := 0; sent < total; {
		n := len(chunk)
		if sent+n > total {
			n = total - sent
		}
		crc = crc32.Update(crc, crc32.IEEETable, chunk[:n])
		sent += n
	}
	return crc
}

// citySeeds are the CityConfig.Seed values the city workload draws
// from: the first 32 simulator seeds on which psd.RunCity keeps its
// conservation laws at the workload's size (12 districts). -seed s
// picks citySeeds[(s-1) mod 32], so seeds 1..6 map to themselves.
// Seeds 7, 24 and 34 are absent because RunCity breaks conservation
// there; the README's "Known issues" records those inputs, and
// -known-bad re-runs them.
var citySeeds = [32]int64{
	1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
	18, 19, 20, 21, 22, 23, 25, 26, 27, 28, 29, 30, 31, 32, 33, 35,
}

func citySeed(seed int64) int64 {
	i := (seed - 1) % int64(len(citySeeds))
	if i < 0 {
		i += int64(len(citySeeds))
	}
	return citySeeds[i]
}
