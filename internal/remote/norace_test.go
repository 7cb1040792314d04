//go:build !race

package remote

// raceEnabled reports a -race build, whose instrumentation allocates on its
// own.
const raceEnabled = false
