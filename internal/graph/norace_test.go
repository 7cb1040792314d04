//go:build !race

package graph

// raceEnabled reports a -race build, whose instrumentation allocates on its
// own and so voids allocation pins.
const raceEnabled = false
