package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"drbac/internal/logstore"
	"drbac/internal/wallet"
)

// stateInfo is the offline summary of a daemon -state path, shared by the
// text and -json renderings.
type stateInfo struct {
	Path        string                 `json:"path"`
	Store       string                 `json:"store"` // "json" or "log"
	Seq         uint64                 `json:"seq"`
	Bundles     int                    `json:"bundles"`
	Revocations int                    `json:"revocations"`
	Segments    []logstore.SegmentInfo `json:"segments,omitempty"`
}

// inspectState classifies the state path by shape: a directory is a
// segmented log store, a regular file is a legacy JSON state file (or the
// .bak a migration left).
func inspectState(path string) (stateInfo, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return stateInfo{}, err
	}
	if fi.IsDir() {
		info, err := logstore.Inspect(path)
		if err != nil {
			return stateInfo{}, err
		}
		return stateInfo{
			Path:        path,
			Store:       "log",
			Seq:         info.Seq,
			Bundles:     info.Bundles,
			Revocations: info.Revocations,
			Segments:    info.Segments,
		}, nil
	}
	st, err := wallet.ReadLegacyState(path)
	if err != nil {
		return stateInfo{}, err
	}
	return stateInfo{
		Path:        path,
		Store:       "json",
		Seq:         st.Seq,
		Bundles:     len(st.Bundles),
		Revocations: len(st.Revocations),
	}, nil
}

// cmdState inspects a daemon state path without starting a daemon: store
// kind, bundle and revocation counts, the seq high-water mark, and for log
// stores the per-segment layout. It only reads the path, so it is safe to
// run against a live daemon's state.
func cmdState(args []string) error {
	fs := flag.NewFlagSet("state", flag.ContinueOnError)
	statePath := fs.String("state", "", "daemon state path (JSON file or log directory)")
	asJSON := fs.Bool("json", false, "emit the summary as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	path := *statePath
	if path == "" && fs.NArg() == 1 {
		path = fs.Arg(0)
	}
	if path == "" {
		return errors.New("state: -state (or a positional path) is required")
	}
	info, err := inspectState(path)
	if err != nil {
		return err
	}
	if *asJSON {
		data, err := json.MarshalIndent(info, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	renderState(os.Stdout, info)
	return nil
}

// renderState pretty-prints the summary; log stores get a per-segment table.
func renderState(w io.Writer, info stateInfo) {
	fmt.Fprintf(w, "state %s\n", info.Path)
	fmt.Fprintf(w, "  store        %s\n", info.Store)
	fmt.Fprintf(w, "  seq          %d\n", info.Seq)
	fmt.Fprintf(w, "  bundles      %d\n", info.Bundles)
	fmt.Fprintf(w, "  revocations  %d\n", info.Revocations)
	if len(info.Segments) == 0 {
		return
	}
	fmt.Fprintf(w, "segments\n")
	for _, seg := range info.Segments {
		fmt.Fprintf(w, "  %-14s %-9s records=%-5d bytes=%-8d seq=%d..%d",
			seg.Name, seg.Status, seg.Records, seg.Bytes, seg.MinSeq, seg.MaxSeq)
		if seg.TornBytes > 0 {
			fmt.Fprintf(w, " torn=%d", seg.TornBytes)
		}
		fmt.Fprintln(w)
	}
}
