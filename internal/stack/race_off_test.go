//go:build !race

package stack

const raceEnabled = false
