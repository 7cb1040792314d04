package sim

import (
	"runtime"
	"testing"
	"time"
)

// TestExperimentsLeaveNoGoroutines runs every registered experiment, the
// bounded smokes included, several times: the worlds a run builds own
// everything it starts, so once they are closed the goroutine count is back
// where it was.
func TestExperimentsLeaveNoGoroutines(t *testing.T) {
	const runs = 3
	for _, x := range Experiments {
		before := runtime.NumGoroutine()
		for i := 0; i < runs; i++ {
			if err := x.Run(new(Report)); err != nil {
				t.Fatalf("-exp %s: %v", x.Name, err)
			}
		}
		// A server's connection goroutines return shortly after Close
		// tears their connections down.
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); n > before && time.Now().Before(deadline); {
			time.Sleep(10 * time.Millisecond)
			n = runtime.NumGoroutine()
		}
		if n > before {
			t.Errorf("-exp %s run %d times left %d goroutines behind", x.Name, runs, n-before)
		}
	}
}
