//go:build race

package simnet

// raceEnabled reports that the race detector is active, under which
// sync.Pool deliberately drops items so allocation counts are not
// meaningful.
const raceEnabled = true
