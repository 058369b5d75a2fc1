//go:build !race

package socklayer_test

const raceEnabled = false
