// Package bufpool provides the process-wide frame buffer pool shared by the
// transport framing layer and the wire codec. Frames on the hot paths
// (queries, proofs, publishes, pushes) are built in and read into pooled
// buffers, so steady-state traffic stops paying one allocation per frame.
//
// The pool is size-classed: one sync.Pool per power of two from minClass to
// MaxRetain. Get(n) draws from the smallest class that holds n, so a 150-byte
// query and a 2.3 KB proof reply never trade buffers, and a buffer that was
// Put comes back from the Get of its own class.
//
// Ownership discipline: a buffer obtained from Get is owned by the caller
// until it passes the buffer to Put, after which the caller must not touch
// it again. Put guards against pool poisoning: buffers are length-reset to
// zero and oversized backing arrays are dropped instead of re-pooled, so one
// multi-megabyte proof frame cannot pin its memory for the life of the
// process.
//
// Who Puts a frame (SPEC §14): the side that received it, once the body is
// decoded — wire.DecodeBody copies everything it keeps, so no decoded value
// aliases its frame. The server Puts a request frame after dispatch has
// answered it; the client Puts a reply frame inside call, after decoding the
// body into the caller's value, and a notify frame in its read loop, after
// decoding the push. The side that encoded a frame Puts it when Send returns
// (Send fully consumes its argument).
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// The classes run from minClass = 1<<minShift to MaxRetain = 1<<maxShift.
const (
	minShift = 8
	maxShift = 16
)

// MaxRetain caps the capacity of buffers kept by the pool. A returned buffer
// whose backing array outgrew it (a jumbo sync snapshot, a near-MaxFrame
// proof) is discarded so the pool holds only steady-state-sized memory.
const MaxRetain = 1 << maxShift

// minClass is the smallest pooled capacity; pings, acks and queries fit.
const minClass = 1 << minShift

// classes[i] pools buffers whose capacity is at least minClass<<i (and below
// the next class, unless a foreign buffer was Put).
var classes [maxShift - minShift + 1]sync.Pool

// buffer wraps the slice so the pools store a pointer-shaped value (storing
// bare slices makes sync.Pool allocate an interface header per Put).
type buffer struct{ b []byte }

// wrapperPool recycles the pointer wrappers themselves so Get/Put do not
// allocate a wrapper per call.
var wrapperPool = sync.Pool{New: func() any { return new(buffer) }}

var (
	gets     atomic.Uint64
	puts     atomic.Uint64
	discards atomic.Uint64
	news     atomic.Uint64
)

// Get returns a zero-length buffer with capacity at least n, ready to be
// appended to or resliced up to n.
func Get(n int) []byte {
	gets.Add(1)
	if n > MaxRetain {
		// Never pooled: allocate exactly what is needed.
		news.Add(1)
		return make([]byte, 0, n)
	}
	class := 0
	if n > minClass {
		class = bits.Len(uint(n-1)) - minShift // ceil(log2 n) - minShift
	}
	if bp, _ := classes[class].Get().(*buffer); bp != nil {
		b := bp.b
		bp.b = nil
		wrapperPool.Put(bp)
		return b
	}
	news.Add(1)
	return make([]byte, 0, minClass<<class)
}

// Put returns b's backing array to the pool. Safe for buffers that did not
// come from Get. The buffer is length-reset before pooling, and backing
// arrays larger than MaxRetain (or too small for any class) are dropped —
// the misuse guard that keeps an oversized frame from living in the pool
// forever.
func Put(b []byte) {
	if b == nil {
		return
	}
	puts.Add(1)
	if cap(b) > MaxRetain || cap(b) < minClass {
		discards.Add(1)
		return
	}
	bp := wrapperPool.Get().(*buffer)
	bp.b = b[:0]
	// floor(log2 cap): every buffer in a class is at least the class size.
	classes[bits.Len(uint(cap(b)))-1-minShift].Put(bp)
}

// Stats is a snapshot of the pool's traffic counters.
type Stats struct {
	// Gets counts buffers handed out.
	Gets uint64 `json:"gets"`
	// Puts counts buffers offered back.
	Puts uint64 `json:"puts"`
	// Discards counts offered buffers dropped by the retention guard.
	Discards uint64 `json:"discards"`
	// News counts fresh allocations the pool had to make (pool misses).
	News uint64 `json:"news"`
}

// Snapshot reads the current counters.
func Snapshot() Stats {
	return Stats{
		Gets:     gets.Load(),
		Puts:     puts.Load(),
		Discards: discards.Load(),
		News:     news.Load(),
	}
}
