//go:build race

package obs

// raceEnabled reports a -race build, whose instrumentation allocates on its
// own.
const raceEnabled = true
