// Package archive is the queryable history of finished events. The
// serving layer's retention policy evicts finished events from detector
// memory (detect.TrimFinished); instead of losing them, an eviction hook
// appends each one here. Appends land in an in-memory tail; the tail is
// written as one v2 columnar segment file (block.go, segment2.go) with a
// sidecar holding min/max quantum, a keyword Bloom filter and per-block
// zone maps, so time-range, rank and keyword queries skip segments and
// blocks that cannot match and scan only the rest (the data-skipping
// idea of provenance-pruned scans, applied to event history).
//
// Layout of one tenant's archive directory:
//
//	ev-00000000000000000001.col            records 1..k, CRC-framed blocks
//	ev-00000000000000000001.col.meta.json  sidecar: ranges, Bloom, zone maps
//	ev-00000000000000000314.col            the tail as of its last Sync
//
// The tail is written (tmp + fsync + rename + directory fsync) when it
// reaches SegmentEvents records or spans BucketQuanta quanta — it then
// joins the sealed list — and in place, under the same name, whenever
// the owner calls Sync or Close. Only sealed segments are ever read
// from disk; the tail is scanned from memory. Open loads every .col
// file as sealed and starts a fresh tail on the next Append.
//
// Records carry a 1-based eviction ordinal (Seq) matching the
// detector's cumulative trim counter, which makes appends idempotent
// across WAL replays: a replayed eviction whose ordinal is already
// archived is dropped by the writer. A crash loses at most the tail
// appended since the last Sync; the server syncs before every WAL
// snapshot, so replay from that snapshot regenerates the lost records.
package archive

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/vfs"
)

const segPrefix = "ev-"

// Record is one archived event. Quanta double as the archive's time
// axis (the detector's clock).
type Record struct {
	// Seq is the 1-based eviction ordinal (detect's trim counter).
	Seq           uint64   `json:"seq"`
	ID            uint64   `json:"id"`
	State         string   `json:"state"`
	Keywords      []string `json:"keywords"`
	AllKeywords   []string `json:"all_keywords,omitempty"`
	Rank          float64  `json:"rank"`
	PeakRank      float64  `json:"peak_rank"`
	BornQuantum   int      `json:"born_quantum"`
	LastQuantum   int      `json:"last_quantum"`
	Evolved       bool     `json:"evolved"`
	Size          int      `json:"size"`
	Support       int      `json:"support"`
	Reported      bool     `json:"reported"`
	FirstReported int      `json:"first_reported,omitempty"`
	MergedInto    uint64   `json:"merged_into,omitempty"`
	SplitFrom     uint64   `json:"split_from,omitempty"`
	Spurious      bool     `json:"spurious"`
}

// segMeta is the sidecar: enough to decide, without opening the data
// file, whether a query's time range, rank floor or keyword can
// possibly match, plus the per-block zone maps. File is the seq the
// data file is named by — the first record's Seq for every segment
// this package writes, but a converted legacy segment keeps its old
// name, which an ordinal gap can have set apart from FirstSeq.
type segMeta struct {
	File       uint64 `json:"file"` // data file name seq
	FirstSeq   uint64 `json:"first_seq"`
	LastSeq    uint64 `json:"last_seq"`
	Count      int    `json:"count"`
	MinQuantum int    `json:"min_quantum"`
	MaxQuantum int    `json:"max_quantum"`
	Bloom      string `json:"bloom"` // base64 keyword Bloom filter

	// BloomK is the filter's hash count; 0 means the legacy 4.
	BloomK int `json:"bloom_k,omitempty"`
	// MaxPeakRank bounds PeakRank across the segment's records, for
	// rank-floor skipping; readers treat 0 as "unknown", which is
	// always safe.
	MaxPeakRank float64 `json:"max_peak_rank,omitempty"`
	// Blocks are the per-block zone maps, in file order.
	Blocks []blockZone `json:"blocks,omitempty"`

	bf bloom // decoded lazily
}

// observe folds one record into the seq/quantum/rank bounds and the
// keyword filter, creating the filter with sizing bp on first use.
func (m *segMeta) observe(rec *Record, bp bloomParams) {
	if m.Count == 0 {
		m.FirstSeq, m.MinQuantum, m.MaxQuantum = rec.Seq, rec.BornQuantum, rec.LastQuantum
		m.bf, m.BloomK = newBloomSized(bp), bp.hashes
	}
	m.LastSeq = rec.Seq
	m.Count++
	m.MinQuantum = min(m.MinQuantum, rec.BornQuantum)
	m.MaxQuantum = max(m.MaxQuantum, rec.LastQuantum)
	if rec.PeakRank > m.MaxPeakRank { // not max(): a NaN rank must not poison the bound
		m.MaxPeakRank = rec.PeakRank
	}
	for _, kw := range rec.Keywords {
		m.bf.add(kw)
	}
	for _, kw := range rec.AllKeywords {
		m.bf.add(kw)
	}
}

// Options tune one Log.
type Options struct {
	// SegmentEvents seals the tail into a segment after this many
	// records. Zero selects 512.
	SegmentEvents int
	// BucketQuanta seals the tail once it spans more than this many
	// quanta (max observed LastQuantum − min BornQuantum) — the time
	// bucketing that keeps a segment's [min,max] window tight enough for
	// range skipping to bite. Zero selects 1024.
	BucketQuanta int
	// BlockEvents caps records per block inside a segment — the
	// granularity at which zone maps skip and scans decode. Zero
	// selects 256.
	BlockEvents int
	// BloomBitsPerKey sizes new segments' keyword Bloom filters as
	// bits-per-key × SegmentEvents (hash count at the ln2·bits/key
	// optimum). Zero selects the legacy fixed 8192-bit/4-hash filter.
	// Existing sidecars keep the shape they were written with.
	BloomBitsPerKey int
	// FS overrides the filesystem behind every file operation — the
	// fault-injection seam for tests. Nil selects the real one.
	FS vfs.FS
}

func (o Options) withDefaults() Options {
	if o.SegmentEvents <= 0 {
		o.SegmentEvents = 512
	}
	if o.BucketQuanta <= 0 {
		o.BucketQuanta = 1024
	}
	if o.BlockEvents <= 0 {
		o.BlockEvents = defaultBlockEvents
	}
	o.FS = vfs.Default(o.FS)
	return o
}

// Log is one tenant's event archive. Safe for concurrent use: Segments
// snapshots the segment metadata and the tail under the internal lock,
// and scans run without it — sealed files are immutable and the tail
// slice is never written in place — so a long history scan never
// blocks the ingest path that appends evictions.
type Log struct {
	dir      string
	opt      Options
	fs       vfs.FS
	bloomPar bloomParams // sizing for new segment-level filters

	mu     sync.Mutex
	sealed []segMeta // sealed segments, ascending FirstSeq
	// tail holds the records appended since the last seal, in ordinal
	// order; tailMeta is their bounds and Bloom filter. Views share the
	// backing array (capacity-capped), so Append only ever writes past
	// every view's end and a seal replaces the slice instead of
	// truncating it. synced counts the tail records already durable.
	tail     []Record
	tailMeta segMeta
	synced   int
	seq      uint64 // last appended ordinal
	gaps     uint64 // ordinal gaps observed (records lost before a crash)
	// quarantined counts segments renamed aside after a scan or the
	// legacy converter hit corruption — history the service keeps
	// serving around.
	quarantined uint64

	// Compaction bookkeeping: compactMu serializes compactor steps (the
	// sealed-list splice assumes one compactor); the counters (guarded by
	// mu) feed the service metrics.
	compactMu        sync.Mutex
	compactions      uint64
	segsCompacted    uint64
	bytesReclaimed   uint64
	recordsCompacted uint64
}

// Open opens (creating if needed) an archive directory. Every .col
// segment is loaded as sealed, described by its sidecar; a missing or
// stale sidecar is rebuilt from the data file. Legacy v1 JSONL
// segments are converted to .col segments first (legacy.go). Any
// segment whose ordinal range is covered by another segment is a
// leftover from a compaction the process crashed out of after the
// commit rename — it is deleted here, which is what makes kill -9 at
// any point of a compaction converge to exactly-once records.
func Open(dir string, opt Options) (*Log, error) {
	opt = opt.withDefaults()
	if err := opt.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("archive: open %s: %w", dir, err)
	}
	l := &Log{dir: dir, opt: opt, fs: opt.FS, bloomPar: bloomSizing(opt.BloomBitsPerKey, opt.SegmentEvents)}
	// Sweep temp files a crash between write and rename left.
	if orphans, err := l.fs.Glob(filepath.Join(dir, "*.tmp")); err == nil {
		for _, o := range orphans {
			l.fs.Remove(o) //nolint:errcheck // best effort
		}
	}
	entries, err := l.fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("archive: list %s: %w", dir, err)
	}
	var colStarts, legacyStarts []uint64
	for _, e := range entries {
		if n, ok := segNum(e.Name(), colExt); ok {
			colStarts = append(colStarts, n)
		} else if n, ok := legacySegNum(e.Name()); ok {
			legacyStarts = append(legacyStarts, n)
		}
	}
	slices.Sort(colStarts)
	slices.Sort(legacyStarts)

	var metas []segMeta
	for _, start := range colStarts {
		m, err := l.loadMeta(start)
		if err != nil {
			return nil, err
		}
		metas = append(metas, m)
	}
	for _, start := range slices.Compact(legacyStarts) {
		m, ok, err := l.convertLegacy(start, metas)
		if err != nil {
			return nil, err
		}
		if ok {
			metas = append(metas, m)
		}
	}

	// Resolve supersession, then keep the survivors as the sealed list.
	dead := make([]bool, len(metas))
	for i := range metas {
		dead[i] = supersededBy(metas[i], metas)
	}
	for i := range metas {
		if dead[i] {
			l.removeSegmentFiles(metas[i].File)
			continue
		}
		l.sealed = append(l.sealed, metas[i])
		l.seq = max(l.seq, metas[i].LastSeq)
	}
	slices.SortFunc(l.sealed, func(a, b segMeta) int { return cmp.Compare(a.FirstSeq, b.FirstSeq) })
	l.sweepOrphanSidecars(entries)
	return l, nil
}

// segNum parses a segment file name "ev-<seq><ext>".
func segNum(name, ext string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, ext) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), ext), 10, 64)
	return n, err == nil
}

// covers reports whether o's ordinal range contains [first, last].
func covers(o *segMeta, first, last uint64) bool {
	return o.Count > 0 && o.FirstSeq <= first && o.LastSeq >= last
}

// supersededBy reports whether another segment in metas strictly
// covers m's ordinal range, making m a compaction leftover. Exact ties
// between different files never occur (a merge is named after its
// first input), so a tie keeps both rather than risk deleting both.
func supersededBy(m segMeta, metas []segMeta) bool {
	if m.Count == 0 {
		return false
	}
	for i := range metas {
		o := &metas[i]
		if o.File == m.File || !covers(o, m.FirstSeq, m.LastSeq) {
			continue
		}
		if o.FirstSeq != m.FirstSeq || o.LastSeq != m.LastSeq {
			return true
		}
	}
	return false
}

// removeSegmentFiles deletes a segment's data file and sidecar.
func (l *Log) removeSegmentFiles(file uint64) {
	l.fs.Remove(l.colPath(file))     //nolint:errcheck // best effort
	l.fs.Remove(l.colMetaPath(file)) //nolint:errcheck // best effort
}

// sweepOrphanSidecars removes sidecars whose data file is gone — the
// one file a crash between a compaction's data-file deletion and
// sidecar deletion can leave behind.
func (l *Log) sweepOrphanSidecars(entries []os.DirEntry) {
	for _, e := range entries {
		n, ok := segNum(e.Name(), colMetaSuffix)
		if !ok {
			continue
		}
		if _, err := l.fs.Stat(l.colPath(n)); os.IsNotExist(err) {
			l.fs.Remove(l.colMetaPath(n)) //nolint:errcheck // best effort
		}
	}
}

// loadMeta reads a segment's sidecar, or decodes every block of the
// data file to rebuild it when the sidecar is missing, unreadable, or
// disagrees with the data file (sidecarMatches) — the last one is the
// crash window where a rewrite renamed a new data file over this path
// but died before rewriting the sidecar, leaving zone maps that
// describe the old bytes.
func (l *Log) loadMeta(start uint64) (segMeta, error) {
	raw, err := l.fs.ReadFile(l.colMetaPath(start))
	if err == nil {
		var m segMeta
		if jerr := json.Unmarshal(raw, &m); jerr == nil && l.sidecarMatches(start, &m) {
			m.File = start
			m.bf = decodeBloom(m.Bloom, m.BloomK)
			for i := range m.Blocks {
				m.Blocks[i].bf = decodeBloom(m.Blocks[i].Bloom, blockBloomHashes)
			}
			return m, nil
		}
	}
	var m segMeta
	_, err = scanColFile(l.fs, l.colPath(start), func(rec *Record) error {
		m.observe(rec, l.bloomPar)
		return nil
	}, func(z blockZone) {
		m.Blocks = append(m.Blocks, z)
	})
	if err != nil {
		return segMeta{}, err
	}
	m.File = start
	if err := l.writeMeta(&m); err != nil {
		return segMeta{}, err
	}
	return m, nil
}

// sidecarMatches reports whether a sidecar agrees with its data file:
// the fixed header's ordinal range, count and quantum bounds, and zone
// maps that tile the file's body exactly. A sidecar that passes can
// never point a scan outside the file or at a frame larger than it.
func (l *Log) sidecarMatches(start uint64, m *segMeta) bool {
	if m.Count <= 0 || len(m.Blocks) == 0 {
		return false
	}
	f, err := l.fs.Open(l.colPath(start))
	if err != nil {
		return false
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return false
	}
	var buf [colHeaderLen]byte
	if _, err := f.ReadAt(buf[:], 0); err != nil {
		return false
	}
	hdr, err := parseColHeader(buf[:])
	if err != nil || hdr.firstSeq != m.FirstSeq || hdr.lastSeq != m.LastSeq || hdr.count != m.Count ||
		hdr.minQ != m.MinQuantum || hdr.maxQ != m.MaxQuantum {
		return false
	}
	off, count := int64(colHeaderLen), 0
	for i := range m.Blocks {
		z := &m.Blocks[i]
		if z.Off != off || z.Len <= frameHdrLen || int64(z.Len) > st.Size()-off || z.Count <= 0 {
			return false
		}
		off += int64(z.Len)
		count += z.Count
	}
	return off == st.Size() && count == m.Count
}

// Append archives one record into the in-memory tail. Records whose Seq
// is at or below the highest ordinal archived are dropped (replayed
// evictions). An ordinal gap — records lost to a crash whose evictions
// the WAL snapshot already covers, so replay will never regenerate them
// — is counted (Gaps) and skipped over: those records are gone either
// way, and refusing all future appends would turn a small hole into
// total history loss. Append keeps rec's slices; the caller must not
// modify them afterwards.
//
// When the tail reaches the segment bounds it is sealed: written as a
// segment file and moved to the sealed list. A failed seal keeps the
// record (and the whole tail) in memory, queryable, and is retried by
// the next Append, Sync or Close; the error is returned so the caller
// can count it.
func (l *Log) Append(rec Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if rec.Seq <= l.seq {
		return nil // WAL replay re-evicted an event already archived
	}
	if rec.Seq != l.seq+1 {
		l.gaps++
	}
	l.tail = append(l.tail, rec)
	l.tailMeta.observe(&rec, l.bloomPar)
	l.seq = rec.Seq
	if l.tailMeta.Count >= l.opt.SegmentEvents ||
		l.tailMeta.MaxQuantum-l.tailMeta.MinQuantum >= l.opt.BucketQuanta {
		return l.sealLocked()
	}
	return nil
}

// writeSegment writes recs as the segment file ev-<file>.col and its
// sidecar, returning the segment's metadata.
func (l *Log) writeSegment(file uint64, recs []Record) (segMeta, error) {
	m, err := writeSegmentV2(l.fs, l.colPath(file), recs, l.opt.BlockEvents, l.bloomPar)
	if err != nil {
		return segMeta{}, err
	}
	m.File = file
	if err := l.writeMeta(&m); err != nil {
		return segMeta{}, err
	}
	return m, nil
}

// sealLocked writes the tail as ev-<first>.col and moves it to the
// sealed list; the next Append starts a fresh tail. Caller holds l.mu.
func (l *Log) sealLocked() error {
	if len(l.tail) == 0 {
		return nil
	}
	m, err := l.writeSegment(l.tail[0].Seq, l.tail)
	if err != nil {
		return fmt.Errorf("archive: seal segment: %w", err)
	}
	l.sealed = append(l.sealed, m)
	l.tail, l.tailMeta, l.synced = nil, segMeta{}, 0
	return nil
}

// Sync makes every appended record durable: the tail is written in
// place (ev-<first>.col, tmp + fsync + rename + directory fsync) but
// stays the tail, so the next Append keeps filling the same segment.
// A no-op when nothing was appended since the last Sync or seal. The
// server calls it before every WAL snapshot: a snapshot may only cover
// evictions the archive can no longer lose.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.synced == len(l.tail) {
		return nil
	}
	if _, err := l.writeSegment(l.tail[0].Seq, l.tail); err != nil {
		return fmt.Errorf("archive: sync tail: %w", err)
	}
	l.synced = len(l.tail)
	return nil
}

func (l *Log) writeMeta(m *segMeta) error {
	if !m.bf.empty() {
		m.Bloom = m.bf.encode()
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("archive: encode sidecar: %w", err)
	}
	path := l.colMetaPath(m.File)
	tmp := path + ".tmp"
	if err := l.fs.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("archive: write sidecar: %w", err)
	}
	if err := l.fs.Rename(tmp, path); err != nil {
		return fmt.Errorf("archive: write sidecar: %w", err)
	}
	return nil
}

// LastSeq returns the highest archived eviction ordinal.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Gaps returns how many ordinal gaps Append has skipped over — each
// one marks records that were evicted but never made it to disk.
func (l *Log) Gaps() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gaps
}

// SegmentCount returns the number of segments (sealed + a non-empty
// tail).
func (l *Log) SegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.sealed)
	if len(l.tail) > 0 {
		n++
	}
	return n
}

// EventCount returns the number of archived events, tail included.
func (l *Log) EventCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.tail)
	for i := range l.sealed {
		n += l.sealed[i].Count
	}
	return n
}

// Close seals the tail, so everything appended is durable; a later
// Append starts a fresh tail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sealLocked()
}

// ErrStop, returned by a SegmentView.Scan callback, stops the scan
// early without error — the LIMIT-pushdown signal.
var ErrStop = fmt.Errorf("archive: stop scan")

// ErrCorrupt marks structural damage inside a sealed segment's data
// file — a CRC mismatch, a torn frame, a record count that disagrees
// with the sidecar. Errors wrapping it are the quarantine signal: the
// damage is in the bytes, not the device, so retrying the read cannot
// help, but the rest of the archive is still good. Device-level read
// errors (EIO) deliberately do NOT wrap it.
var ErrCorrupt = errors.New("segment corrupt")

// quarantineSuffix is appended to a corrupt segment's data file and
// sidecar names. Open ignores the renamed files (wrong extension), so
// the damage survives for offline forensics without ever being served
// again.
const quarantineSuffix = ".quarantine"

// SegmentView is a point-in-time handle on one segment: the sidecar
// bounds for planning (time-range, rank-floor, and Bloom data skipping)
// plus a record iterator. Views are snapshots — records appended to the
// tail after Segments() returned are not visible through them, and a
// view stays readable even if the segment it describes is compacted
// away mid-scan: a vanished or replaced data file makes the scan fall
// back to the covering compacted segment, filtered to this view's
// ordinal range.
type SegmentView struct {
	// FirstSeq/LastSeq bound the eviction ordinals in the segment.
	FirstSeq uint64
	LastSeq  uint64
	// Count is the number of records the view covers.
	Count int
	// MinQuantum is the smallest BornQuantum of any covered record;
	// MaxQuantum the largest LastQuantum. Every record's sort span
	// falls inside [MinQuantum, MaxQuantum].
	MinQuantum int
	MaxQuantum int
	// MaxPeakRank bounds PeakRank across the covered records; +Inf when
	// unknown (never skip on unknown).
	MaxPeakRank float64
	// Sealed marks a segment read from disk; the unsealed view is the
	// in-memory tail.
	Sealed bool

	file  uint64
	zones []blockZone // zone maps (immutable once sealed; shared)
	tail  []Record    // the unsealed view's records (capacity-capped)
	bf    bloom
	l     *Log
}

// Blocks returns the number of blocks the view covers (0 for the tail,
// which is scanned from memory).
func (v *SegmentView) Blocks() int { return len(v.zones) }

// Quarantine sets this view's segment aside in its parent Log after a
// scan returned an error wrapping ErrCorrupt — see Log.Quarantine.
func (v *SegmentView) Quarantine() bool { return v.l.Quarantine(v) }

// MayContain reports whether the segment's keyword Bloom filter admits
// kw (false positives possible, false negatives not). A view with no
// filter admits everything.
func (v *SegmentView) MayContain(kw string) bool {
	return v.bf.mayContain(kw)
}

// Pred is the predicate ScanPred pushes below segment granularity: a
// scan skips whole blocks whose zone maps prove no record can match.
// Records handed to the callback are NOT individually filtered — block
// skipping is conservative, so callers apply their own record-level
// filter exactly as they would after Scan.
type Pred struct {
	// From/To bound the quantum range: a record matches when its
	// [BornQuantum, LastQuantum] span intersects [From, To]. To < 0
	// means unbounded. Note the zero value bounds the range to quantum
	// 0 — callers must set To.
	From, To int
	// MinRank, when positive, requires PeakRank ≥ MinRank.
	MinRank float64
	// Keywords requires every listed keyword (AND semantics), matched
	// against the block Bloom filters.
	Keywords []string

	// minSeq/maxSeq (0 = unbounded) restrict records by eviction
	// ordinal — set internally when a scan falls back from a compacted-
	// away segment to the covering rewrite, which holds more than the
	// original view's records.
	minSeq, maxSeq uint64
}

// matchAll is the no-predicate Pred (plain Scan).
func matchAll() Pred { return Pred{To: -1} }

// skipReason classifies why a block was skipped.
type skipReason int

const (
	skipNone skipReason = iota
	skipTime
	skipRank
	skipKeyword
)

func (z *blockZone) skip(p *Pred) skipReason {
	if z.MaxQuantum < p.From || z.MinQuantum > p.To {
		return skipTime
	}
	if p.maxSeq > 0 && (z.FirstSeq > p.maxSeq || z.LastSeq < p.minSeq) {
		return skipTime // ordinal range disjoint: same bucket as time
	}
	if p.MinRank > 0 && z.MaxRank < p.MinRank {
		return skipRank
	}
	if len(p.Keywords) > 0 && !z.mayContainKeywords(p.Keywords) {
		return skipKeyword
	}
	return skipNone
}

// inSeqRange reports whether rec passes the ordinal restriction.
func (p *Pred) inSeqRange(rec *Record) bool {
	return (p.minSeq == 0 || rec.Seq >= p.minSeq) && (p.maxSeq == 0 || rec.Seq <= p.maxSeq)
}

// BlockStats reports one ScanPred's block-level work: how many blocks
// the segment holds, how many were read, and why the rest were skipped
// without touching the data file. A tail scan reads no blocks.
type BlockStats struct {
	Blocks           int // blocks covered by the view
	Scanned          int // blocks read and decoded
	SkippedByTime    int // zone quantum/ordinal range proved no match
	SkippedByRank    int // zone max PeakRank below the rank floor
	SkippedByKeyword int // zone Bloom filter refuted a keyword
	Records          int // records handed to the callback
}

func (b *BlockStats) addTo(o *BlockStats) {
	o.Blocks += b.Blocks
	o.Scanned += b.Scanned
	o.SkippedByTime += b.SkippedByTime
	o.SkippedByRank += b.SkippedByRank
	o.SkippedByKeyword += b.SkippedByKeyword
	o.Records += b.Records
}

// Scan streams the view's records to fn in eviction order. fn returning
// ErrStop ends the scan early (stopped=true, err=nil); any other error
// aborts and is returned. seen counts records handed to fn. A sealed
// segment whose blocks disagree with the sidecar (CRC, count) is
// reported as an error wrapping ErrCorrupt: silently truncating history
// would be worse than failing the query.
func (v *SegmentView) Scan(fn func(Record) error) (seen int, stopped bool, err error) {
	bs, stopped, err := v.scanWithPred(matchAll(), 0, func(rec *Record) error { return fn(*rec) })
	return bs.Records, stopped, err
}

// ScanPred streams the view's records to fn in eviction order, skipping
// blocks whose zone maps prove no record can match pred (see Pred for
// what the callback still must filter). The *Record and its slices
// remain valid after fn returns, but the struct pointed to is reused —
// copy it to keep it. Stop/error semantics match Scan.
func (v *SegmentView) ScanPred(pred Pred, fn func(*Record) error) (BlockStats, bool, error) {
	return v.scanWithPred(pred, 0, fn)
}

// maxRescanDepth bounds compacted-away fallback nesting; one level is
// the steady state (old view → covering rewrite) and a second absorbs a
// re-compaction racing the fallback itself.
const maxRescanDepth = 2

// scanWithPred is the scan: the tail straight from memory; a sealed
// segment by zone-map skipping, then CRC-checked column-at-a-time
// decode of only the surviving blocks.
func (v *SegmentView) scanWithPred(pred Pred, depth int, fn func(*Record) error) (bs BlockStats, stopped bool, err error) {
	if pred.To < 0 {
		pred.To = maxInt
	}
	if !v.Sealed {
		for i := range v.tail {
			rec := v.tail[i] // a copy: callers must never reach the tail itself
			if !pred.inSeqRange(&rec) {
				continue
			}
			bs.Records++
			if err := fn(&rec); err != nil {
				if err == ErrStop {
					return bs, true, nil
				}
				return bs, false, err
			}
		}
		return bs, false, nil
	}
	f, err := v.l.fs.Open(v.l.colPath(v.file))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) && depth < maxRescanDepth {
			return v.rescanCompacted(pred, depth, fn)
		}
		return bs, false, fmt.Errorf("archive: open segment: %w", err)
	}
	defer f.Close()
	// The open fd pins the inode, so the scan below is immune to a
	// concurrent re-compaction renaming over this path — but the path
	// may already BE the replacement. Verify the header matches the
	// view; a mismatch means the view's zone maps describe a replaced
	// file, so fall back as if it had vanished.
	var hdrBuf [colHeaderLen]byte
	if _, err := f.ReadAt(hdrBuf[:], 0); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			// The file is shorter than its own fixed header: structural
			// damage, not a device error.
			err = fmt.Errorf("short header: %w", ErrCorrupt)
		}
		return bs, false, fmt.Errorf("archive: segment %d: %w", v.file, err)
	}
	hdr, err := parseColHeader(hdrBuf[:])
	if err != nil {
		return bs, false, fmt.Errorf("archive: segment %d: %w: %w", v.file, err, ErrCorrupt)
	}
	if hdr.firstSeq != v.FirstSeq || hdr.lastSeq != v.LastSeq || hdr.count != v.Count {
		if depth < maxRescanDepth {
			return v.rescanCompacted(pred, depth, fn)
		}
		return bs, false, fmt.Errorf("archive: segment %d: file replaced mid-scan", v.file)
	}

	bs.Blocks = len(v.zones)
	sc := scratchPool.Get().(*blockScratch)
	defer scratchPool.Put(sc)
	for zi := range v.zones {
		z := &v.zones[zi]
		switch z.skip(&pred) {
		case skipTime:
			bs.SkippedByTime++
			continue
		case skipRank:
			bs.SkippedByRank++
			continue
		case skipKeyword:
			bs.SkippedByKeyword++
			continue
		}
		bs.Scanned++
		payload, err := readFrame(f, z, &sc.frame)
		if err != nil {
			return bs, false, fmt.Errorf("archive: segment %d: %w", v.file, err)
		}
		n, derr := decodeBlock(payload, sc, func(rec *Record) error {
			if !pred.inSeqRange(rec) {
				return nil
			}
			bs.Records++
			return fn(rec)
		})
		if derr == ErrStop {
			return bs, true, nil
		}
		if derr != nil {
			if errors.Is(derr, errBlockCorrupt) {
				derr = fmt.Errorf("%w: %w", derr, ErrCorrupt)
			}
			return bs, false, fmt.Errorf("archive: segment %d: block at %d: %w", v.file, z.Off, derr)
		}
		if n != z.Count {
			return bs, false, fmt.Errorf("archive: segment %d: block at %d has %d of %d records: %w",
				v.file, z.Off, n, z.Count, ErrCorrupt)
		}
	}
	return bs, false, nil
}

// rescanCompacted re-resolves a scan whose data file was compacted away
// (or replaced) after the view was taken: the compactor only ever
// merges whole segments, so some current segment's ordinal range covers
// this view's — rescan it with the predicate narrowed to the view's
// ordinals, yielding exactly the original record set.
func (v *SegmentView) rescanCompacted(pred Pred, depth int, fn func(*Record) error) (BlockStats, bool, error) {
	if pred.minSeq == 0 || pred.minSeq < v.FirstSeq {
		pred.minSeq = v.FirstSeq
	}
	if pred.maxSeq == 0 || pred.maxSeq > v.LastSeq {
		pred.maxSeq = v.LastSeq
	}
	// A compaction step renames its merged file over its first input
	// before it splices the sealed list: wait out any step in flight so
	// the list below already holds the replacement.
	v.l.compactMu.Lock()
	v.l.compactMu.Unlock()
	views := v.l.Segments()
	for i := range views {
		w := &views[i]
		if !w.Sealed || (w.file == v.file && w.FirstSeq == v.FirstSeq && w.LastSeq == v.LastSeq) {
			continue // the vanished segment itself (stale list)
		}
		if w.Count > 0 && w.FirstSeq <= v.FirstSeq && w.LastSeq >= v.LastSeq {
			return w.scanWithPred(pred, depth+1, fn)
		}
	}
	return BlockStats{}, false, fmt.Errorf("archive: segment %d vanished with no covering replacement", v.file)
}

// Segments snapshots the archive's segments (sealed, then the tail) in
// ascending-FirstSeq order. The metadata is copied under the lock and
// the data files (immutable, or replaced only via the rescan fallback
// above) are read without it, so planning and scanning never block
// concurrent appends.
func (l *Log) Segments() []SegmentView {
	l.mu.Lock()
	defer l.mu.Unlock()
	views := make([]SegmentView, 0, len(l.sealed)+1)
	for i := range l.sealed {
		m := &l.sealed[i]
		if m.bf.empty() {
			m.bf = decodeBloom(m.Bloom, m.BloomK) // immutable once sealed: safe to share
		}
		views = append(views, SegmentView{
			FirstSeq:    m.FirstSeq,
			LastSeq:     m.LastSeq,
			Count:       m.Count,
			MinQuantum:  m.MinQuantum,
			MaxQuantum:  m.MaxQuantum,
			MaxPeakRank: rankBound(m),
			Sealed:      true,
			file:        m.File,
			zones:       m.Blocks,
			bf:          m.bf,
			l:           l,
		})
	}
	if n := len(l.tail); n > 0 {
		// The tail filter keeps mutating under appends; copy it.
		m := &l.tailMeta
		views = append(views, SegmentView{
			FirstSeq:    m.FirstSeq,
			LastSeq:     m.LastSeq,
			Count:       m.Count,
			MinQuantum:  m.MinQuantum,
			MaxQuantum:  m.MaxQuantum,
			MaxPeakRank: rankBound(m),
			file:        m.FirstSeq,
			tail:        l.tail[:n:n],
			bf:          m.bf.clone(),
			l:           l,
		})
	}
	return views
}

// Quarantine renames a corrupt sealed segment's data file and sidecar
// aside (quarantineSuffix) and drops the segment from the sealed list,
// so every later query serves the surviving history instead of
// re-hitting the damage. The damaged bytes stay on disk for forensics.
// Reports whether the view named a segment still in the sealed list
// (false for the tail, already-quarantined segments, or views of a
// compacted-away file — in all of those there is nothing to remove).
// Safe against a concurrent compaction: it takes the compactor's mutex,
// so the splice never invalidates a compaction step mid-flight.
func (l *Log) Quarantine(v *SegmentView) bool {
	if !v.Sealed {
		return false
	}
	l.compactMu.Lock()
	defer l.compactMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	idx := slices.IndexFunc(l.sealed, func(m segMeta) bool { return m.File == v.file })
	if idx < 0 {
		return false
	}
	// Rename failures are tolerated: the segment leaves the sealed list
	// either way, which is what stops the bleeding. A file that could
	// not be renamed is served again only after a reopen.
	for _, p := range []string{l.colPath(v.file), l.colMetaPath(v.file)} {
		l.fs.Rename(p, p+quarantineSuffix) //nolint:errcheck // best effort
	}
	l.sealed = slices.Delete(l.sealed, idx, idx+1)
	l.quarantined++
	return true
}

// QuarantinedSegments returns how many segments this Log has
// quarantined since open.
func (l *Log) QuarantinedSegments() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.quarantined
}

// rankBound maps a sidecar's MaxPeakRank to the view bound: 0 means
// "unknown, or genuinely all-zero" — both unskippable, so surface +Inf
// (never skip on unknown).
func rankBound(m *segMeta) float64 {
	if m.MaxPeakRank > 0 {
		return m.MaxPeakRank
	}
	return math.Inf(1)
}

func (l *Log) colPath(file uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%020d%s", segPrefix, file, colExt))
}

func (l *Log) colMetaPath(file uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%020d%s", segPrefix, file, colMetaSuffix))
}
