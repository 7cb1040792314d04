//go:build !race

package wallet

// raceEnabled reports a -race build, whose instrumentation allocates on its
// own.
const raceEnabled = false
