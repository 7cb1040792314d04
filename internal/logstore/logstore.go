// Package logstore is the wallet's durable journal, a segmented append-only
// wallet.Store: every accepted mutation appends one CRC-framed,
// seq-stamped record to the active segment file instead of rewriting the
// whole wallet state (what the JSON file store it replaced did, priced by
// EXP-R1). Appends are group-committed — concurrent writers share one fsync
// — segments seal at a size threshold, and a background compactor folds
// revoked, expired, and overwritten bundles out of sealed segments. Startup
// replays the segments in order, truncating a torn tail at the last valid
// frame, and folds them into the wallet.State that Load hands the wallet;
// after that the store holds record locations and segment accounting, never
// a bundle or the revoked set.
package logstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"drbac/internal/core"
	"drbac/internal/obs"
	"drbac/internal/wallet"
)

// Options tunes a Store. The zero value is production-ready.
type Options struct {
	// SegmentBytes is the size at which the active segment seals and a new
	// one rolls. Zero means 1 MiB.
	SegmentBytes int64
	// CompactInterval is how often the background compactor scans sealed
	// segments. Zero means 15s; negative disables the background pass
	// (Compact can still be called directly).
	CompactInterval time.Duration
	// Registry receives drbac_logstore_* metrics; nil disables them.
	Registry *obs.Registry
	// Obs, when set, gives commit batches and compaction passes trace
	// spans (and supplies Registry when it is nil).
	Obs *obs.Obs
}

func (o Options) withDefaults() Options {
	if o.Registry == nil && o.Obs != nil {
		o.Registry = o.Obs.Registry()
	}
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.CompactInterval == 0 {
		o.CompactInterval = 15 * time.Second
	}
	return o
}

// segExt is the segment file suffix; compaction writes its replacement file
// under segCmpExt and renames over the original.
const (
	segExt    = ".seg"
	segCmpExt = ".seg.cmp"
)

var errClosed = errors.New("logstore: store is closed")

// segment is the store's bookkeeping for one on-disk segment file. The last
// entry of Store.segments is the active (appendable) segment; all earlier
// ones are sealed and immutable except for compaction's atomic rewrite.
type segment struct {
	name      string
	index     int
	compacted bool
	size      int64 // valid bytes, always == file length
	records   int   // non-header records
	minSeq    uint64
	maxSeq    uint64
	// dead counts put records superseded by a later put or delete; the
	// compactor's trigger.
	dead int
}

// recLoc locates the live put record for a delegation ID.
type recLoc struct {
	seg *segment
	seq uint64
}

// commitBatch is one group commit: every appender that wrote a frame while
// the batch was open shares the syncer's single fsync and wakes on done.
type commitBatch struct {
	files      map[*os.File]struct{}
	closeAfter []*os.File
	records    int
	done       chan struct{}
	err        error
}

// Store is a segmented append-only wallet.Store. See the package comment.
type Store struct {
	dir  string
	opts Options

	mAppends      *obs.Counter
	mSeals        *obs.Counter
	mCompactions  *obs.Counter
	mReclaimed    *obs.Counter
	mBatches      *obs.Counter
	mBatchRecords *obs.Counter
	mCompactFails *obs.Counter

	obs *obs.Obs

	mu         sync.Mutex
	failed     error // sticky: set when the active file is in an unknown state
	syncErr    error // sticky: first fsync failure; durability is unprovable after it
	compactErr error // last compaction failure; cleared by a clean pass
	closed     bool
	segments   []*segment
	active     *os.File
	next       int    // next segment index
	seq        uint64 // highest seq any record carries
	putLoc     map[core.DelegationID]recLoc
	cur        *commitBatch
	// recovered is what the segments replayed to at Open, held until Load.
	recovered wallet.State

	// compactMu serializes Compact passes (background and explicit).
	compactMu sync.Mutex

	syncCh chan struct{}
	stop   chan struct{}
	wg     sync.WaitGroup
}

// Open opens (or initializes) the segmented store rooted at dir, replaying
// existing segments into the state Load returns. Torn tails — partial
// frames, CRC damage, zero-fill from a crash mid-append — are truncated at
// the last valid frame: a torn record was never fsync-acknowledged to any
// caller, so discarding it restores exactly the acknowledged state. Leftover
// compaction temp files were never renamed into place, so they are removed.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("logstore %s: %w", dir, err)
	}
	s := &Store{
		dir:    dir,
		obs:    opts.Obs,
		opts:   opts,
		putLoc: make(map[core.DelegationID]recLoc),
		next:   1,
		syncCh: make(chan struct{}, 1),
		stop:   make(chan struct{}),
	}
	if reg := opts.Registry; reg != nil {
		s.mAppends = reg.Counter("drbac_logstore_appends_total")
		s.mSeals = reg.Counter("drbac_logstore_seals_total")
		s.mCompactions = reg.Counter("drbac_logstore_compactions_total")
		s.mReclaimed = reg.Counter("drbac_logstore_compact_reclaimed_bytes_total")
		s.mBatches = reg.Counter("drbac_logstore_commit_batches_total")
		s.mBatchRecords = reg.Counter("drbac_logstore_commit_batch_records_total")
		s.mCompactFails = reg.Counter("drbac_logstore_compact_failures_total")
		reg.GaugeFunc("drbac_logstore_segments", func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return int64(len(s.segments))
		})
		reg.GaugeFunc("drbac_logstore_active_segment_bytes", func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			if len(s.segments) == 0 {
				return 0
			}
			return s.segments[len(s.segments)-1].size
		})
	}
	replayed := newFold()
	truncations, err := s.recover(replayed)
	if err != nil {
		return nil, err
	}
	s.recovered = replayed.state()
	if reg := opts.Registry; reg != nil {
		reg.Counter("drbac_logstore_recovery_truncations_total").Add(int64(truncations))
	}
	s.mu.Lock()
	if len(s.segments) == 0 {
		err = s.rollLocked()
	} else {
		// Reopen the last segment for appending.
		last := s.segments[len(s.segments)-1]
		s.active, err = os.OpenFile(filepath.Join(dir, last.name), os.O_WRONLY|os.O_APPEND, 0o600)
	}
	s.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("logstore %s: %w", dir, err)
	}
	s.wg.Add(1)
	go s.syncLoop()
	if opts.CompactInterval > 0 {
		s.wg.Add(1)
		go s.compactLoop(opts.CompactInterval)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// recover scans the segment directory, truncating torn tails, indexing every
// valid record and folding it into replayed. It returns the number of
// segments whose tail was truncated.
func (s *Store) recover(replayed *fold) (truncations int, err error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("logstore %s: %w", s.dir, err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, segCmpExt):
			// A compaction that crashed before its rename; the original
			// segment is still authoritative.
			if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
				return 0, fmt.Errorf("logstore %s: removing stale %s: %w", s.dir, name, err)
			}
		case strings.HasSuffix(name, segExt):
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(s.dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return 0, err
		}
		seg := &segment{name: name, index: segmentIndex(name)}
		if seg.index >= s.next {
			s.next = seg.index + 1
		}
		off := 0
		for off < len(data) {
			rec, n, ok := DecodeFrame(data[off:])
			if !ok {
				break
			}
			off += n
			if rec.Kind == KindHeader {
				if rec.Version > formatVersion {
					return 0, fmt.Errorf("logstore %s: segment %s format v%d is newer than supported v%d",
						s.dir, name, rec.Version, formatVersion)
				}
				seg.compacted = seg.compacted || rec.Compacted
				continue
			}
			s.index(seg, rec)
			replayed.apply(rec)
		}
		if off < len(data) {
			// Torn tail: everything decodable was acknowledged, the rest was
			// not. Cut the file back so the next append lands on a frame
			// boundary.
			truncations++
			if err := os.Truncate(path, int64(off)); err != nil {
				return 0, fmt.Errorf("logstore %s: truncating torn tail of %s: %w", s.dir, name, err)
			}
		}
		seg.size = int64(off)
		if seg.records == 0 && seg.size == 0 {
			// Not even a header survived (crash during roll): the file holds
			// nothing acknowledged, so drop it rather than reviving a
			// zero-byte segment.
			if err := os.Remove(path); err != nil {
				return 0, fmt.Errorf("logstore %s: removing empty %s: %w", s.dir, name, err)
			}
			continue
		}
		s.segments = append(s.segments, seg)
	}
	return truncations, nil
}

// span widens the segment's seq range to cover seq.
func (seg *segment) span(seq uint64) {
	if seg.minSeq == 0 || seq < seg.minSeq {
		seg.minSeq = seq
	}
	if seq > seg.maxSeq {
		seg.maxSeq = seq
	}
}

// index accounts for one record seg now holds — appended a moment ago or
// decoded during recovery: the segment's record count and seq span, and the
// liveness index (a put supersedes the ID's earlier put, a delete kills it;
// a put without its bundle holds no state and is never live).
// Callers hold s.mu, or are recovery, which runs before the store is shared.
func (s *Store) index(seg *segment, rec Record) {
	seg.records++
	seg.span(rec.Seq)
	if rec.Seq > s.seq {
		s.seq = rec.Seq
	}
	switch {
	case rec.Kind == KindPut && rec.holdsBundle():
		if loc, ok := s.putLoc[rec.ID]; ok {
			loc.seg.dead++
		}
		s.putLoc[rec.ID] = recLoc{seg: seg, seq: rec.Seq}
	case rec.Kind == KindDelete:
		if loc, ok := s.putLoc[rec.ID]; ok {
			loc.seg.dead++
			delete(s.putLoc, rec.ID)
		}
	}
}

// Load implements wallet.Store: the state the segments replayed to at Open.
// It is handed over once — the wallet's memory is the state from then on —
// and a second call returns the empty state.
func (s *Store) Load() wallet.State {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.recovered
	s.recovered = wallet.State{}
	return st
}

func segmentName(index int) string { return fmt.Sprintf("%08d%s", index, segExt) }

func segmentIndex(name string) int {
	var idx int
	_, _ = fmt.Sscanf(strings.TrimSuffix(name, segExt), "%d", &idx)
	return idx
}

// rollLocked seals the current active segment (if any) and opens the next
// one, writing its header frame durably before any record can land in it.
// Callers hold s.mu.
func (s *Store) rollLocked() error {
	if s.active != nil {
		old := s.active
		if b := s.cur; b != nil {
			if _, pending := b.files[old]; pending {
				// Unflushed frames ride the open batch; the syncer closes the
				// handle after their shared fsync.
				b.closeAfter = append(b.closeAfter, old)
				old = nil
			}
		}
		if old != nil {
			// Every acknowledged append was already fsynced; this sync only
			// hardens the seal before the handle goes away.
			_ = old.Sync()
			_ = old.Close()
		}
		s.active = nil
		s.mSeals.Inc()
	}
	idx := s.next
	s.next++
	name := segmentName(idx)
	f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o600)
	if err != nil {
		return err
	}
	hdr, err := EncodeFrame(nil, Record{Kind: KindHeader, Version: formatVersion})
	if err == nil {
		_, err = f.Write(hdr)
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		// The new file's directory entry must be durable before records in it
		// are acknowledged.
		err = wallet.SyncDir(s.dir)
	}
	if err != nil {
		_ = f.Close()
		_ = os.Remove(filepath.Join(s.dir, name))
		return fmt.Errorf("logstore %s: rolling segment %s: %w", s.dir, name, err)
	}
	s.segments = append(s.segments, &segment{name: name, index: idx, size: int64(len(hdr))})
	s.active = f
	return nil
}

// append frames rec, writes it to the active segment, and joins the open
// commit batch, returning once the batch's shared fsync has made the record
// durable.
func (s *Store) append(rec Record) error {
	frame, err := EncodeFrame(nil, rec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.failed != nil {
		err := s.failed
		s.mu.Unlock()
		return err
	}
	if s.closed {
		s.mu.Unlock()
		return errClosed
	}
	seg := s.segments[len(s.segments)-1]
	if seg.records > 0 && seg.size+int64(len(frame)) > s.opts.SegmentBytes {
		if err := s.rollLocked(); err != nil {
			s.mu.Unlock()
			return err
		}
		seg = s.segments[len(s.segments)-1]
	}
	if _, err := s.active.Write(frame); err != nil {
		// A short write leaves garbage after the last valid frame; cut the
		// file back so later appends do not bury acknowledged records behind
		// an undecodable gap. If even that fails the file is in an unknown
		// state and the store refuses further writes.
		if terr := s.active.Truncate(seg.size); terr != nil {
			s.failed = fmt.Errorf("logstore %s: segment %s unrecoverable after failed write: %w", s.dir, seg.name, terr)
		}
		s.mu.Unlock()
		return fmt.Errorf("logstore %s: append to %s: %w", s.dir, seg.name, err)
	}
	seg.size += int64(len(frame))
	s.index(seg, rec)
	b := s.cur
	if b == nil {
		b = &commitBatch{files: make(map[*os.File]struct{}), done: make(chan struct{})}
		s.cur = b
	}
	b.files[s.active] = struct{}{}
	b.records++
	s.mu.Unlock()

	select {
	case s.syncCh <- struct{}{}:
	default:
	}
	<-b.done
	if b.err != nil {
		return b.err
	}
	s.mAppends.Inc()
	return nil
}

// syncLoop is the group-commit syncer: it takes whichever batch is open,
// fsyncs every file the batch touched once, and wakes all its appenders.
// Writers that arrive during an fsync pile into the next batch — publish
// bursts amortize the fsync instead of paying one each.
func (s *Store) syncLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.syncCh:
			s.flushBatch()
		case <-s.stop:
			// Close set closed before stopping us, so no new batch can open;
			// flush whatever is pending and exit.
			s.flushBatch()
			return
		}
	}
}

func (s *Store) flushBatch() {
	s.mu.Lock()
	b := s.cur
	s.cur = nil
	s.mu.Unlock()
	if b == nil {
		return
	}
	sp := s.obs.StartSpan(obs.NewTraceID(), "logstore.commit",
		"records", b.records, "files", len(b.files))
	var err error
	for f := range b.files {
		if e := f.Sync(); e != nil && err == nil {
			err = e
		}
	}
	for _, f := range b.closeAfter {
		_ = f.Close()
	}
	b.err = err
	close(b.done)
	if err != nil {
		sp.Fail(err)
		// After a failed fsync the kernel may have dropped the dirty pages,
		// so retrying cannot prove durability. Stay unhealthy for good.
		s.mu.Lock()
		if s.syncErr == nil {
			s.syncErr = fmt.Errorf("logstore %s: commit fsync: %w", s.dir, err)
		}
		s.mu.Unlock()
	}
	sp.End("ok", err == nil)
	s.mBatches.Inc()
	s.mBatchRecords.Add(int64(b.records))
}

// PutDelegation implements wallet.Store: one durable put record.
func (s *Store) PutDelegation(seq uint64, d *core.Delegation, support []*core.Proof) error {
	rec := Record{
		Seq:    seq,
		Kind:   KindPut,
		ID:     d.ID(),
		Bundle: &wallet.StoredBundle{Delegation: d, Support: support},
	}
	return s.append(rec)
}

// DeleteDelegation implements wallet.Store: one durable tombstone record.
// Tombstones survive compaction: the put a tombstone kills may sit in an
// older segment compaction has not reached yet, and replay must still see
// the removal.
func (s *Store) DeleteDelegation(seq uint64, id core.DelegationID) error {
	return s.append(Record{Seq: seq, Kind: KindDelete, ID: id})
}

// AddRevocation implements wallet.Store. Revocation records carry the
// original revocation instant and are never compacted away.
func (s *Store) AddRevocation(seq uint64, id core.DelegationID, at time.Time) (bool, error) {
	return true, s.append(Record{Seq: seq, Kind: KindRevoke, ID: id, At: at})
}

// Compact runs one compaction pass: every sealed segment holding a dead put
// record is rewritten without them. Revocation and delete tombstones always
// survive — revocations are permanent, and a delete must outlive the put it
// kills in an older segment not compacted yet — so compaction reclaims
// bundle bytes, the dominant term, and nothing else. The rewrite is
// crash-safe: new frames go to a .cmp temp file, fsynced, then renamed over
// the original; recovery discards a half-written temp.
func (s *Store) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errClosed
	}
	type cand struct {
		seg  *segment
		dead int
	}
	var cands []cand
	for i, seg := range s.segments {
		if i == len(s.segments)-1 {
			break // active segment never compacts
		}
		if seg.dead > 0 {
			cands = append(cands, cand{seg, seg.dead})
		}
	}
	s.mu.Unlock()

	var err error
	if len(cands) > 0 {
		sp := s.obs.StartSpan(obs.NewTraceID(), "logstore.compact", "segments", len(cands))
		for _, c := range cands {
			csp := sp.StartChild("logstore.compact-segment", "segment", c.seg.name, "dead", c.dead)
			err = s.compactSegment(c.seg)
			if err != nil {
				csp.Fail(err)
				csp.End()
				break
			}
			csp.End()
		}
		if err != nil {
			sp.Fail(err)
		}
		sp.End("ok", err == nil)
	}
	// Compaction failures are retried every pass, so health tracks the most
	// recent outcome: a clean pass (even a no-op one) clears the condition.
	s.mu.Lock()
	s.compactErr = err
	s.mu.Unlock()
	return err
}

// Health reports whether the store can still promise durability: nil while
// appends, fsyncs, and compactions are all succeeding, else the sticky
// append/fsync failure or the latest compaction failure. Readiness probes
// poll it to pull a wallet whose disk has gone bad out of rotation.
func (s *Store) Health() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return s.failed
	}
	if s.syncErr != nil {
		return s.syncErr
	}
	return s.compactErr
}

// compactSegment rewrites one sealed segment without its dead put records.
func (s *Store) compactSegment(seg *segment) error {
	path := filepath.Join(s.dir, seg.name)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("logstore %s: compact %s: %w", s.dir, seg.name, err)
	}
	recs, err := DecodeSegment(data)
	if err != nil {
		return fmt.Errorf("logstore %s: compact %s: %w", s.dir, seg.name, err)
	}

	// Liveness is judged against the index at this instant. A record judged
	// live can die concurrently — kept garbage, reclaimed next pass. A
	// record judged dead can never come back: put seqs are unique and the
	// index only ever advances to newer ones, so dropping is always safe.
	s.mu.Lock()
	kept := recs[:0]
	for _, rec := range recs {
		if rec.Kind != KindPut {
			kept = append(kept, rec)
			continue
		}
		if loc, ok := s.putLoc[rec.ID]; ok && loc.seq == rec.Seq {
			kept = append(kept, rec)
		}
	}
	s.mu.Unlock()
	if len(kept) == len(recs) {
		return nil
	}

	if len(kept) == 0 {
		// Nothing live and no tombstones: retire the whole segment.
		s.mu.Lock()
		defer s.mu.Unlock()
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("logstore %s: retiring %s: %w", s.dir, seg.name, err)
		}
		if err := wallet.SyncDir(s.dir); err != nil {
			return fmt.Errorf("logstore %s: retiring %s: %w", s.dir, seg.name, err)
		}
		for i, sg := range s.segments {
			if sg == seg {
				s.segments = append(s.segments[:i], s.segments[i+1:]...)
				break
			}
		}
		s.mCompactions.Inc()
		s.mReclaimed.Add(seg.size)
		return nil
	}

	buf, err := EncodeFrame(nil, Record{Kind: KindHeader, Version: formatVersion, Compacted: true})
	if err != nil {
		return err
	}
	for _, rec := range kept {
		if buf, err = EncodeFrame(buf, rec); err != nil {
			return err
		}
	}
	tmp := strings.TrimSuffix(path, segExt) + segCmpExt
	if err := writeFileSync(tmp, buf); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("logstore %s: compact %s: %w", s.dir, seg.name, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("logstore %s: compact %s: %w", s.dir, seg.name, err)
	}
	if err := wallet.SyncDir(s.dir); err != nil {
		return fmt.Errorf("logstore %s: compact %s: %w", s.dir, seg.name, err)
	}
	reclaimed := seg.size - int64(len(buf))
	seg.compacted = true
	seg.size = int64(len(buf))
	seg.records = len(kept)
	seg.minSeq, seg.maxSeq, seg.dead = 0, 0, 0
	for _, rec := range kept {
		seg.span(rec.Seq)
		// Records that died between the liveness snapshot and the swap stay
		// counted so the next pass picks them up.
		if rec.Kind == KindPut {
			if loc, ok := s.putLoc[rec.ID]; !ok || loc.seq != rec.Seq {
				seg.dead++
			}
		}
	}
	s.mCompactions.Inc()
	s.mReclaimed.Add(reclaimed)
	return nil
}

// Close flushes the pending commit batch, stops the background goroutines,
// and closes the active segment. Further mutations fail.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.active != nil {
		if e := s.active.Sync(); e != nil {
			err = e
		}
		if e := s.active.Close(); e != nil && err == nil {
			err = e
		}
		s.active = nil
	}
	return err
}

func (s *Store) compactLoop(interval time.Duration) {
	defer s.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			// A failed pass leaves the old segments intact and the next tick
			// retries; Health carries the failure to the readiness probe.
			if err := s.Compact(); err != nil && !errors.Is(err, errClosed) {
				s.mCompactFails.Inc()
				s.obs.Log().Warn("logstore: background compaction failed",
					"dir", s.dir, "error", err)
			}
		}
	}
}

// writeFileSync writes data to path and fsyncs before closing, so the
// bytes are on stable storage before the caller renames the file into place.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
