package archive

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/vfs"
)

// queryJSON snapshots a query's full result set as JSON — the
// byte-identity oracle the compaction tests compare against.
func queryJSON(t *testing.T, l *Log, from, to int, kw string) string {
	t.Helper()
	raw, err := json.Marshal(records(t, l, from, to, kw))
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// seedRecords is the record set the compaction tests archive.
func seedRecords(n int) []Record {
	recs := make([]Record, 0, n)
	for i := 1; i <= n; i++ {
		r := rec(uint64(i), i%40, i%40+3, "common", fmt.Sprintf("kw-%d", i%7))
		if i%5 == 0 {
			r.Keywords = nil // exercise nil-vs-empty through the rewrite
			r.AllKeywords = []string{}
		}
		recs = append(recs, r)
	}
	return recs
}

// seedArchive fills dir with n records through tiny rotation bounds so
// the sealed list holds many small segments, then closes the Log.
func seedArchive(t *testing.T, dir string, n int, opt Options) {
	t.Helper()
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range seedRecords(n) {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// snapshotDir reads every file in dir into memory.
func snapshotDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = raw
	}
	return out
}

// restoreDir resets dir to exactly the given snapshot.
func restoreDir(t *testing.T, dir string, snap map[string][]byte) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := vfs.OS.Remove(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	for name, raw := range snap {
		if err := vfs.OS.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func dirSize(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

func TestCompactionMergesSmallSegments(t *testing.T) {
	dir := t.TempDir()
	seedArchive(t, dir, 9, Options{SegmentEvents: 2}) // {1,2}{3,4}{5,6}{7,8}{9}, the last sealed by Close
	l, err := Open(dir, Options{SegmentEvents: 100, BucketQuanta: 1024, BlockEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	before := queryJSON(t, l, 0, -1, "")
	beforeKw := queryJSON(t, l, 0, -1, "kw-3")

	st, worked, err := l.CompactOnce()
	if err != nil || !worked {
		t.Fatalf("CompactOnce: worked=%v err=%v", worked, err)
	}
	if st.Compactions != 1 || st.SegmentsIn != 5 || st.Records != 9 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesReclaimed == 0 {
		t.Fatal("merge reclaimed no bytes")
	}
	if n := l.SegmentCount(); n != 1 {
		t.Fatalf("segments = %d, want 1", n)
	}
	if got := queryJSON(t, l, 0, -1, ""); got != before {
		t.Fatalf("full query changed:\n before %s\n after  %s", before, got)
	}
	if got := queryJSON(t, l, 0, -1, "kw-3"); got != beforeKw {
		t.Fatalf("keyword query changed:\n before %s\n after  %s", beforeKw, got)
	}
	c, segs, recs, bytes := l.CompactTotals()
	if c != 1 || segs != 5 || recs != 9 || bytes == 0 {
		t.Fatalf("totals = %d/%d/%d/%d", c, segs, recs, bytes)
	}
	// The single merged segment is never re-picked: compaction converges.
	if _, worked, err := l.CompactOnce(); err != nil || worked {
		t.Fatalf("second CompactOnce: worked=%v err=%v", worked, err)
	}
	// Inputs other than the first (whose name the merge took) are gone.
	for _, seq := range []uint64{3, 5, 7, 9} {
		if _, err := os.Stat(l.colPath(seq)); !os.IsNotExist(err) {
			t.Fatalf("input segment %d survived compaction", seq)
		}
	}
	assertOnlyColumnar(t, dir, "")
}

// TestCompactionRewritesColdSegments covers the v1→v2 rewrite of cold
// legacy JSONL segments, which Open now performs (it was the
// compactor's format-rewrite step): segments too far apart in time to
// merge are each rewritten to a same-name .col segment — even when a
// stale v1 sidecar disagrees with its data file — and the directory
// converges to an all-columnar body that answers like the v1 records.
func TestCompactionRewritesColdSegments(t *testing.T) {
	dir := t.TempDir()
	var all []Record
	for i := 1; i <= 8; i++ { // buckets 1000 quanta apart: no merge run
		q := i / 2 * 1000
		all = append(all, rec(uint64(i), q, q+3, "common", fmt.Sprintf("kw-%d", i)))
	}
	for start := 1; start <= 7; start += 2 {
		writeLegacy(t, dir, uint64(start), all[start-1:start+1], "")
		writeLegacySidecar(t, dir, uint64(start), 2)
	}
	writeLegacySidecar(t, dir, 5, 7) // stale: claims records the file lacks
	l, err := Open(dir, Options{SegmentEvents: 2, BucketQuanta: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	assertOnlyColumnar(t, dir, "")
	if n := l.SegmentCount(); n != 4 {
		t.Fatalf("segments = %d, want 4 (one per v1 segment)", n)
	}
	want, err := json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	if got := queryJSON(t, l, 0, -1, ""); got != string(want) {
		t.Fatalf("converted records differ:\n want %s\n have %s", want, got)
	}
	if got := seqs(records(t, l, 2000, 2999, "")); !slices.Equal(got, []uint64{4, 5}) {
		t.Fatalf("range query after rewrite = %v", got)
	}
	// Time skipping still works across the rewritten segments.
	skipped := 0
	for _, v := range l.Segments() {
		if v.MaxQuantum < 2000 || v.MinQuantum > 2999 {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("no segment bounds exclude [2000,2999] after rewrite")
	}
	if st, err := l.CompactAll(); err != nil || st.Compactions != 0 {
		t.Fatalf("cold segments merged: %+v, %v", st, err)
	}
}

// TestCompactionCrashRecovery stages the on-disk state a kill -9 leaves
// at each step of the compaction commit protocol and verifies Open
// converges every one of them to the same exactly-once record set.
func TestCompactionCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	seedArchive(t, dir, 9, Options{SegmentEvents: 2})
	opt := Options{SegmentEvents: 100, BucketQuanta: 1024, BlockEvents: 4}
	pre := snapshotDir(t, dir)

	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := queryJSON(t, l, 0, -1, "")
	wantKw := queryJSON(t, l, 0, -1, "kw-2")
	if _, worked, err := l.CompactOnce(); err != nil || !worked {
		t.Fatalf("CompactOnce: worked=%v err=%v", worked, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	post := snapshotDir(t, dir)
	colName := filepath.Base(l.colPath(1))
	sideName := filepath.Base(l.colMetaPath(1))
	if _, ok := post[colName]; !ok {
		t.Fatalf("no merged col file in %v", post)
	}

	windows := []struct {
		name  string
		stage func()
	}{
		{"BeforeRename", func() { // crash mid-write: only a tmp exists
			restoreDir(t, dir, pre)
			if err := vfs.OS.WriteFile(filepath.Join(dir, colName+".tmp"), []byte("torn"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"AfterRenameBeforeSidecar", func() { // col committed, sidecar missing, inputs alive
			restoreDir(t, dir, pre)
			if err := vfs.OS.WriteFile(filepath.Join(dir, colName), post[colName], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"AfterSidecarBeforeDeletes", func() { // everything written, inputs alive
			restoreDir(t, dir, pre)
			for _, name := range []string{colName, sideName} {
				if err := vfs.OS.WriteFile(filepath.Join(dir, name), post[name], 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"MidDeletes", func() { // data files of inputs gone, their sidecars orphaned
			restoreDir(t, dir, post)
			for name, raw := range pre {
				if strings.HasSuffix(name, colMetaSuffix) {
					if name == sideName {
						continue
					}
					if err := vfs.OS.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
		}},
	}
	for _, w := range windows {
		t.Run(w.name, func(t *testing.T) {
			w.stage()
			l, err := Open(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if n := l.EventCount(); n != 9 {
				t.Fatalf("events = %d, want 9 (lost or duplicated records)", n)
			}
			if got := queryJSON(t, l, 0, -1, ""); got != want {
				t.Fatalf("recovered query differs:\n want %s\n have %s", want, got)
			}
			if got := queryJSON(t, l, 0, -1, "kw-2"); got != wantKw {
				t.Fatalf("recovered keyword query differs")
			}
			// Recovery converged the directory: no tmp files, no superseded
			// inputs, no orphan sidecars.
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if strings.HasSuffix(e.Name(), ".tmp") {
					t.Fatalf("tmp file %s survived recovery", e.Name())
				}
				if e.Name() == "ev-00000000000000000003.col" && w.name != "BeforeRename" {
					t.Fatal("superseded input segment survived recovery")
				}
			}
		})
	}
}

// TestCompactionCrashStaleSidecarReopen stages the nastiest window: a
// re-compaction renamed a NEW data file over an existing .col path and
// died before rewriting the sidecar, leaving zone maps that describe
// the old bytes. Open must detect the header mismatch and rebuild.
func TestCompactionCrashStaleSidecarReopen(t *testing.T) {
	dir := t.TempDir()
	var oldRecs, allRecs []Record
	for i := 1; i <= 6; i++ {
		r := rec(uint64(i), i, i+2, "kw")
		allRecs = append(allRecs, r)
		if i <= 4 {
			oldRecs = append(oldRecs, r)
		}
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Old merged segment: records 1..4, sidecar in agreement.
	m, err := writeSegmentV2(l.fs, l.colPath(1), oldRecs, 2, l.bloomPar)
	if err != nil {
		t.Fatal(err)
	}
	m.File = 1
	if err := l.writeMeta(&m); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	staleSidecar, err := os.ReadFile(l.colMetaPath(1))
	if err != nil {
		t.Fatal(err)
	}
	// Re-merge commits records 1..6 over the same path...
	if _, err := writeSegmentV2(l.fs, l.colPath(1), allRecs, 2, l.bloomPar); err != nil {
		t.Fatal(err)
	}
	// ...and the crash leaves the 4-record sidecar in place.
	if err := vfs.OS.WriteFile(l.colMetaPath(1), staleSidecar, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs := records(t, l2, 0, -1, "")
	if len(recs) != 6 {
		t.Fatalf("recovered %d records, want 6 (stale sidecar trusted?)", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("order broken: %+v", recs)
		}
	}
	// The rebuilt sidecar now agrees with the data file.
	raw, err := os.ReadFile(l2.colMetaPath(1))
	if err != nil {
		t.Fatal(err)
	}
	var rebuilt segMeta
	if err := json.Unmarshal(raw, &rebuilt); err != nil {
		t.Fatal(err)
	}
	if rebuilt.Count != 6 || rebuilt.LastSeq != 6 {
		t.Fatalf("sidecar not rebuilt: %+v", rebuilt)
	}
}

// TestCompactionScanFallback takes views, compacts their segments away
// underneath them, and verifies in-flight scans still return exactly
// the original record sets via the covering-segment fallback.
func TestCompactionScanFallback(t *testing.T) {
	dir := t.TempDir()
	seedArchive(t, dir, 9, Options{SegmentEvents: 2})
	l, err := Open(dir, Options{SegmentEvents: 100, BucketQuanta: 1024, BlockEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	views := l.Segments()
	if len(views) != 5 {
		t.Fatalf("views = %d, want 5", len(views))
	}
	if _, worked, err := l.CompactOnce(); err != nil || !worked {
		t.Fatalf("CompactOnce: worked=%v err=%v", worked, err)
	}
	var got []uint64
	for i := range views {
		v := &views[i]
		if _, _, err := v.ScanPred(matchAll(), func(r *Record) error {
			got = append(got, r.Seq)
			return nil
		}); err != nil {
			t.Fatalf("stale view %d scan: %v", i, err)
		}
	}
	if len(got) != 9 {
		t.Fatalf("stale views yielded %d records, want 9: %v", len(got), got)
	}
	seen := map[uint64]bool{}
	for _, s := range got {
		if seen[s] {
			t.Fatalf("duplicate seq %d through fallback", s)
		}
		seen[s] = true
	}
}

// TestCompactionFootprint pins the v2 format's size win: the same event
// set is ≥ 5× smaller as a compacted columnar body than as the legacy
// v1 JSONL segments (data + sidecars) Open converts it from.
func TestCompactionFootprint(t *testing.T) {
	dir := t.TempDir()
	n := 4096
	all := seedRecords(n)
	for start := 0; start < n; start += 16 {
		writeLegacy(t, dir, uint64(start+1), all[start:start+16], "")
		writeLegacySidecar(t, dir, uint64(start+1), 16)
	}
	v1Bytes := dirSize(t, dir)

	l, err := Open(dir, Options{SegmentEvents: n, BucketQuanta: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.CompactAll(); err != nil {
		t.Fatal(err)
	}
	v2Bytes := dirSize(t, dir)
	if l.EventCount() != n || l.SegmentCount() != 1 {
		t.Fatalf("events = %d in %d segments, want %d in 1", l.EventCount(), l.SegmentCount(), n)
	}
	if v2Bytes*5 > v1Bytes {
		t.Fatalf("footprint: v1 %d B → v2 %d B (%.1f×), want ≥ 5×",
			v1Bytes, v2Bytes, float64(v1Bytes)/float64(v2Bytes))
	}
}

// TestCompactionBlockSkipping verifies ScanPred prunes below segment
// granularity on every zone-map dimension.
func TestCompactionBlockSkipping(t *testing.T) {
	dir := t.TempDir()
	// SegmentEvents 16: the 16th append seals the whole batch into one
	// segment of four blocks.
	l, err := Open(dir, Options{SegmentEvents: 16, BucketQuanta: 1 << 20, BlockEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// 16 records → 4 blocks of 4: quanta 0-3, 100-103, 200-203, 300-303;
	// ranks rise with seq; block-local keywords.
	for i := 0; i < 16; i++ {
		q := i / 4 * 100
		r := rec(uint64(i+1), q+i%4, q+i%4, fmt.Sprintf("blk-%d", i/4))
		r.PeakRank = float64(i)
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	views := l.Segments()
	if len(views) != 1 || !views[0].Sealed || views[0].Blocks() != 4 {
		t.Fatalf("views = %+v", views)
	}
	v := &views[0]

	cases := []struct {
		name    string
		pred    Pred
		records int
		scanned int
		skipped func(BlockStats) int
	}{
		{"time", Pred{From: 100, To: 103}, 4, 1, func(b BlockStats) int { return b.SkippedByTime }},
		{"rank", Pred{To: -1, MinRank: 12.5}, 4, 1, func(b BlockStats) int { return b.SkippedByRank }},
		{"keyword", Pred{To: -1, Keywords: []string{"blk-2"}}, 4, 1, func(b BlockStats) int { return b.SkippedByKeyword }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := 0
			bs, _, err := v.ScanPred(c.pred, func(*Record) error { n++; return nil })
			if err != nil {
				t.Fatal(err)
			}
			if bs.Blocks != 4 || bs.Scanned != c.scanned || c.skipped(bs) != 3 {
				t.Fatalf("stats = %+v", bs)
			}
			if n != c.records || bs.Records != c.records {
				t.Fatalf("records = %d (stats %d), want %d", n, bs.Records, c.records)
			}
		})
	}
}

// TestCompactionMixedFormatReopen opens the mixed-format directory an
// interrupted legacy compaction leaves: a merged .col segment that
// covers two v1 segments it crashed before deleting (one of them a
// same-range rewrite), untouched v1 segments, a v1 tail with a torn
// line, and a stale v1 sidecar. Open must convert and deduplicate it to
// exactly-once records in .col segments only, and answer identically
// after a restart.
func TestCompactionMixedFormatReopen(t *testing.T) {
	dir := t.TempDir()
	all := seedRecords(13)
	opt := Options{SegmentEvents: 4, BucketQuanta: 1024, BlockEvents: 4}
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.writeSegment(1, all[0:4]); err != nil { // merge of {1,2}{3,4}
		t.Fatal(err)
	}
	if _, err := l.writeSegment(5, all[4:6]); err != nil { // same-range rewrite of {5,6}
		t.Fatal(err)
	}
	writeLegacy(t, dir, 1, all[0:2], "")
	writeLegacy(t, dir, 3, all[2:4], "")
	writeLegacy(t, dir, 5, all[4:6], "")
	writeLegacy(t, dir, 7, all[6:8], "")
	writeLegacy(t, dir, 9, all[8:10], "")
	writeLegacy(t, dir, 11, all[10:13], `{"seq":14,"torn`)
	for _, start := range []uint64{1, 3, 5, 7, 9} {
		writeLegacySidecar(t, dir, start, 2)
	}
	writeLegacySidecar(t, dir, 11, 9) // stale

	want, err := json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	var wantKw []Record
	for _, r := range all {
		if slices.Contains(r.AllKeywords, "kw-4") {
			wantKw = append(wantKw, r)
		}
	}
	wantKwJSON, err := json.Marshal(wantKw)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		l, err := Open(dir, opt)
		if err != nil {
			t.Fatal(err)
		}
		assertOnlyColumnar(t, dir, "")
		if l.LastSeq() != 13 || l.EventCount() != 13 || l.QuarantinedSegments() != 0 {
			t.Fatalf("pass %d: lastSeq %d events %d quarantined %d, want 13/13/0",
				pass, l.LastSeq(), l.EventCount(), l.QuarantinedSegments())
		}
		if got := queryJSON(t, l, 0, -1, ""); got != string(want) {
			t.Fatalf("pass %d: records differ:\n want %s\n have %s", pass, want, got)
		}
		if got := queryJSON(t, l, 0, -1, "kw-4"); got != string(wantKwJSON) {
			t.Fatalf("pass %d: keyword records differ", pass)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
