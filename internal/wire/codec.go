package wire

import (
	"sync/atomic"

	"drbac/internal/bufpool"
)

// CodecBinary names the wire codec: the name the transport handshake offers
// and Conn.Codec reports (the two packages deliberately share no imports in
// that direction; the name is part of the protocol, not of either package).
const CodecBinary = "binary"

// Codec is the wire codec: the binary envelope framing of binary.go. It is
// stateless and safe for concurrent use; the zero value is ready.
type Codec struct{}

// CodecFor returns the codec a connection speaks. A handshake completes only
// on CodecBinary, the one codec there is, so name only documents the caller's
// expectation.
func CodecFor(name string) Codec { return Codec{} }

// codecStats holds the process-wide codec traffic counters surfaced by
// `drbac stats` (WireStats).
type codecStats struct {
	binaryFramesEncoded atomic.Uint64
	binaryFramesDecoded atomic.Uint64
	binaryBytesEncoded  atomic.Uint64
	binaryBytesDecoded  atomic.Uint64
}

var stats codecStats

// WireStats is the codec section of a StatsResp: process-wide codec frame
// and byte counters, delegation-table effectiveness, and frame buffer pool
// traffic. Like the shared signature cache counters, these cover the whole
// process, not one wallet.
type WireStats struct {
	// ConnCodec names the codec of the connection that carried the stats
	// request — the one field here that is per-connection, not
	// process-wide. Filled by the server, empty in a bare StatsSnapshot.
	ConnCodec           string `json:"connCodec,omitempty"`
	BinaryFramesEncoded uint64 `json:"binaryFramesEncoded"`
	BinaryFramesDecoded uint64 `json:"binaryFramesDecoded"`
	BinaryBytesEncoded  uint64 `json:"binaryBytesEncoded"`
	BinaryBytesDecoded  uint64 `json:"binaryBytesDecoded"`
	// DelegationHits/DelegationMisses count proof-reply delegations found
	// in and added to the delegation table.
	DelegationHits   uint64 `json:"delegationHits"`
	DelegationMisses uint64 `json:"delegationMisses"`
	// Pool reports the frame buffer pool's traffic.
	Pool bufpool.Stats `json:"pool"`
}

// StatsSnapshot reads the process-wide codec counters.
func StatsSnapshot() WireStats {
	return WireStats{
		BinaryFramesEncoded: stats.binaryFramesEncoded.Load(),
		BinaryFramesDecoded: stats.binaryFramesDecoded.Load(),
		BinaryBytesEncoded:  stats.binaryBytesEncoded.Load(),
		BinaryBytesDecoded:  stats.binaryBytesDecoded.Load(),
		DelegationHits:      tableStats.hits.Load(),
		DelegationMisses:    tableStats.misses.Load(),
		Pool:                bufpool.Snapshot(),
	}
}
