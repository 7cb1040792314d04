package bufpool

import "testing"

func TestGetPutRoundTrip(t *testing.T) {
	b := Get(100)
	if len(b) != 0 || cap(b) < 100 {
		t.Fatalf("Get(100) = len %d cap %d", len(b), cap(b))
	}
	b = append(b, "hello"...)
	Put(b)
	c := Get(10)
	if len(c) != 0 {
		t.Fatalf("recycled buffer not length-reset: len %d", len(c))
	}
}

func TestPutNilAndForeignBuffers(t *testing.T) {
	before := Snapshot()
	Put(nil)                    // no-op, not even counted
	Put(make([]byte, 0))        // zero-cap: discarded, not pooled
	Put(make([]byte, 32))       // below the smallest class: discarded
	Put(make([]byte, 300))      // foreign, odd-sized: accepted into the 256 class
	Put(make([]byte, 0, 1<<20)) // oversized: discarded
	after := Snapshot()
	if puts, discards := after.Puts-before.Puts, after.Discards-before.Discards; puts != 4 || discards != 3 {
		t.Fatalf("puts %d discards %d, want 4 and 3", puts, discards)
	}
	// The odd-sized foreign buffer sits in the class it can fully serve.
	if b := Get(minClass); cap(b) < minClass {
		t.Fatalf("Get(%d) returned cap %d", minClass, cap(b))
	}
}

// Every class: Get(n) holds n at the class's edges and just past them, and a
// buffer that was Put comes back from the next Get of its class. sync.Pool
// may drop an entry across a GC, so the identity check retries; it never
// holds up a correct pool.
func TestEveryClassHoldsAndRecycles(t *testing.T) {
	for size := minClass; size <= MaxRetain; size <<= 1 {
		for _, n := range []int{size/2 + 1, size - 1, size} {
			b := Get(n)
			if len(b) != 0 || cap(b) < n {
				t.Fatalf("Get(%d) = len %d cap %d", n, len(b), cap(b))
			}
			if n > minClass && cap(b) >= 2*size {
				t.Fatalf("Get(%d) drew cap %d from a larger class than %d", n, cap(b), size)
			}
			Put(b)
		}
		recycled := false
		for try := 0; try < 100 && !recycled; try++ {
			b := Get(size)
			b = b[:1]
			b[0] = 0xA5
			Put(b)
			c := Get(size/2 + 1)
			recycled = cap(c) == cap(b) && c[:1][0] == 0xA5
			Put(c)
		}
		if !recycled {
			t.Fatalf("class %d: a Put buffer never came back from the Get of its class", size)
		}
	}
}

// The misuse guard: a jumbo frame (a 15MiB proof, say) passed back to the
// pool must be dropped, not retained, so one outsized message cannot pin
// megabytes for the life of the process — and steady-state traffic afterwards
// still recycles normally, in every class.
func TestOversizedFrameDiscardedThenSteadyStateRecycles(t *testing.T) {
	const jumbo = 15 << 20
	before := Snapshot()
	b := Get(jumbo)
	if cap(b) < jumbo {
		t.Fatalf("Get(%d) returned cap %d", jumbo, cap(b))
	}
	b = b[:jumbo]
	b[0], b[jumbo-1] = 1, 2
	Put(b)
	after := Snapshot()
	if got := after.Discards - before.Discards; got != 1 {
		t.Fatalf("jumbo Put recorded %d discards, want 1", got)
	}
	if got := after.News - before.News; got != 1 {
		t.Fatalf("jumbo Get recorded %d news, want 1", got)
	}

	// Steady state afterwards: buffers of every class keep flowing, and
	// nothing the pool hands out is jumbo-sized (the big array really was
	// dropped).
	var rounds uint64
	for i := 0; i < 64; i++ {
		for size := minClass; size <= MaxRetain; size <<= 1 {
			s := Get(size)
			if cap(s) > MaxRetain {
				t.Fatalf("pool handed out a retained jumbo buffer: cap %d", cap(s))
			}
			s = append(s, byte(i))
			Put(s)
			rounds++
		}
	}
	final := Snapshot()
	if final.Discards != after.Discards {
		t.Fatalf("steady-state puts were discarded: %d -> %d", after.Discards, final.Discards)
	}
	if final.Gets-after.Gets != rounds || final.Puts-after.Puts != rounds {
		t.Fatalf("counter drift: %+v -> %+v", after, final)
	}
}

func TestGetBeyondMaxRetainIsExact(t *testing.T) {
	b := Get(MaxRetain + 1)
	if cap(b) != MaxRetain+1 {
		t.Fatalf("Get beyond MaxRetain: cap %d, want exactly %d", cap(b), MaxRetain+1)
	}
}
