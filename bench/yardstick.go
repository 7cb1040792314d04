package main

import (
	"io"
	"net"
	"time"
)

// The yardstick says how fast the machine is at this moment, so that a
// slice's timings can be read against it. The sandbox is a microVM on a
// shared host: for seconds or for many minutes at a time everything in it —
// every workload, every metric, CPU time per operation included — runs 10 to
// 60% slower, with no time stolen and nothing in the guest to show for it.
// No statistic over a run's own slices can take that out, because a whole
// run sits inside such an episode. A fixed piece of work timed beside each
// slice can: over 23 runs of each workload spread across three such
// afternoons, dividing by it took the run-to-run spread of the timing
// metrics from 17% on average (34% at worst) to 6.5% (14%). README.md has
// the table.
//
// The work is what the workloads mostly do, in the standard library's own
// terms so that no change to the program can move it: a ping-pong of small
// messages over a loopback TCP connection between two goroutines — system
// calls, the network poller, the scheduler waking a parked thread. It tracked
// the workloads better than a signature-verification loop or a pointer chase
// through 32 MB did (those moved with a different kind of neighbour), and
// better than the same ping-pong with hashing added to each side.
const (
	yardTrips = 400 // round trips per reading
	yardBytes = 200 // per message: about a query
	// yardNominal is a reading on the sandbox when it is quiet. A slice's
	// stretch is its readings over this, so on that machine the metrics read
	// as they were measured, and on any other in that machine's units.
	yardNominal = 3350 * time.Microsecond
)

type yardstick struct {
	ln   net.Listener
	conn net.Conn
	buf  []byte
	done chan struct{} // closed when the echoing goroutine has returned
}

func newYardstick() (*yardstick, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, yardBytes)
		for {
			// A message is small enough to arrive whole: loopback does
			// not split a 200-byte write.
			n, err := c.Read(buf)
			if err != nil {
				return
			}
			if _, err := c.Write(buf[:n]); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		<-done
		return nil, err
	}
	return &yardstick{ln: ln, conn: conn, buf: make([]byte, yardBytes), done: done}, nil
}

// close ends the echoing goroutine — its Read fails once the connection is
// shut, or its Accept once the listener is — and waits for it.
func (y *yardstick) close() {
	y.conn.Close()
	y.ln.Close()
	<-y.done
}

// measure times yardTrips round trips, three times over, and returns the
// least: whatever else ran for a moment — a collector cycle finishing — can
// only have made a reading longer. Nothing else may be driving load while it
// runs; the harness parks the clients.
func (y *yardstick) measure() (time.Duration, error) {
	var least time.Duration
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		for i := 0; i < yardTrips; i++ {
			if _, err := y.conn.Write(y.buf); err != nil {
				return 0, err
			}
			if _, err := io.ReadFull(y.conn, y.buf); err != nil {
				return 0, err
			}
		}
		if d := time.Since(start); rep == 0 || d < least {
			least = d
		}
	}
	return least, nil
}

// stretch is how much longer than on the quiet sandbox things took between
// two readings: 1.25 says every time measured there is a quarter too long.
func stretch(before, after time.Duration) float64 {
	return float64(before+after) / 2 / float64(yardNominal)
}
