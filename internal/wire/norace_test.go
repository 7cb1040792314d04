//go:build !race

package wire

// raceEnabled reports a -race build, whose instrumentation allocates on its
// own.
const raceEnabled = false
