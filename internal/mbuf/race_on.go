//go:build race

package mbuf

// raceEnabled reports that the race detector is active. Under it every
// array is poisoned as it goes back into a pool, so a read through a
// slice that outlived its storage's release shows up as corrupt data
// anywhere in the test suite; sync.Pool also drops items on purpose, so
// allocation counts are not meaningful.
const raceEnabled = true
