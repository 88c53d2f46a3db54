//go:build race

package wire

// raceEnabled reports that the race detector is on: sync.Pool then drops
// Puts at random, so allocation gates cannot hold.
const raceEnabled = true
