package logstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// SegmentInfo describes one segment file for offline inspection.
type SegmentInfo struct {
	Name string `json:"name"`
	// Status is "sealed", "active", or "compacted" (a compacted segment is
	// always sealed).
	Status  string `json:"status"`
	Records int    `json:"records"`
	Bytes   int64  `json:"bytes"`
	// TornBytes is the length of an undecodable tail that recovery would
	// truncate; 0 for a clean segment.
	TornBytes int64  `json:"tornBytes,omitempty"`
	MinSeq    uint64 `json:"minSeq,omitempty"`
	MaxSeq    uint64 `json:"maxSeq,omitempty"`
}

// Info summarizes a log-store directory for offline inspection.
type Info struct {
	Dir         string        `json:"dir"`
	Seq         uint64        `json:"seq"`
	Bundles     int           `json:"bundles"`
	Revocations int           `json:"revocations"`
	Segments    []SegmentInfo `json:"segments"`
}

// Inspect reads a log-store directory without opening it: segments are
// scanned read-only (a torn tail is reported, not truncated) and the live
// bundle and revocation counts come from the same fold Open recovers through.
// The daemon can hold the store open while Inspect runs.
func Inspect(dir string) (Info, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return Info{}, fmt.Errorf("logstore %s: %w", dir, err)
	}
	var names []string
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, segExt) && !strings.HasSuffix(name, segCmpExt) {
			names = append(names, name)
		}
	}
	sort.Strings(names)

	info := Info{Dir: dir}
	replayed := newFold()
	for i, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return Info{}, err
		}
		si := SegmentInfo{Name: name, Status: "sealed"}
		if i == len(names)-1 {
			si.Status = "active"
		}
		off := 0
		for off < len(data) {
			rec, n, ok := DecodeFrame(data[off:])
			if !ok {
				break
			}
			off += n
			if rec.Kind == KindHeader {
				if rec.Compacted && si.Status == "sealed" {
					si.Status = "compacted"
				}
				continue
			}
			si.Records++
			if si.MinSeq == 0 || rec.Seq < si.MinSeq {
				si.MinSeq = rec.Seq
			}
			if rec.Seq > si.MaxSeq {
				si.MaxSeq = rec.Seq
			}
			replayed.apply(rec)
		}
		si.Bytes = int64(off)
		si.TornBytes = int64(len(data) - off)
		info.Segments = append(info.Segments, si)
	}
	info.Seq = replayed.seq
	info.Bundles = len(replayed.bundles)
	info.Revocations = len(replayed.revoked)
	return info, nil
}
