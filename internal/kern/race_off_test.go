//go:build !race

package kern

const raceEnabled = false
