//go:build !race

package core

// raceEnabled reports a -race build, whose instrumentation allocates on its
// own.
const raceEnabled = false
