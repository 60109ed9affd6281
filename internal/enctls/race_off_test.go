//go:build !race

package enctls

// raceEnabled reports a -race build, whose runtime drops sync.Pool items
// at random and so makes heap-object counts drift.
const raceEnabled = false
