package archive

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/vfs"
)

// rec builds a record: one event alive over [born, last] with keywords.
func rec(seq uint64, born, last int, kws ...string) Record {
	return Record{
		Seq:         seq,
		ID:          seq * 10,
		State:       "ended",
		Keywords:    kws,
		AllKeywords: kws,
		Rank:        float64(seq),
		BornQuantum: born,
		LastQuantum: last,
	}
}

// records scans every segment of l in order and returns the records
// whose [BornQuantum, LastQuantum] span intersects [from, to] (to < 0:
// unbounded) and, when kw is non-empty, that carry kw — the reference
// answer the tests compare across formats, restarts and compactions.
func records(t testing.TB, l *Log, from, to int, kw string) []Record {
	t.Helper()
	pred := Pred{From: from, To: to}
	if kw != "" {
		pred.Keywords = []string{kw}
	}
	out := []Record{}
	for _, v := range l.Segments() {
		if _, _, err := v.ScanPred(pred, func(r *Record) error {
			if r.LastQuantum < from || (to >= 0 && r.BornQuantum > to) {
				return nil
			}
			if kw != "" && !slices.Contains(r.AllKeywords, kw) && !slices.Contains(r.Keywords, kw) {
				return nil
			}
			out = append(out, *r)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// seqs lists the records' ordinals.
func seqs(recs []Record) []uint64 {
	out := make([]uint64, len(recs))
	for i := range recs {
		out[i] = recs[i].Seq
	}
	return out
}

// writeLegacy writes recs as a legacy v1 JSONL segment ev-<start>.jsonl
// followed by the raw bytes tail (a torn line, say) — the files an
// archive written before the columnar-only format holds.
func writeLegacy(t testing.TB, dir string, start uint64, recs []Record, tail string) {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	buf.WriteString(tail)
	if err := vfs.OS.WriteFile(filepath.Join(dir, fmt.Sprintf("ev-%020d.jsonl", start)), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeLegacySidecar writes a v1 sidecar claiming count records from
// start — stale whenever it disagrees with the data file.
func writeLegacySidecar(t testing.TB, dir string, start uint64, count int) {
	t.Helper()
	raw := fmt.Sprintf(`{"file":%d,"first_seq":%d,"last_seq":%d,"count":%d,"min_quantum":0,"max_quantum":0,"bloom":""}`,
		start, start, start+uint64(count)-1, count)
	if err := vfs.OS.WriteFile(filepath.Join(dir, fmt.Sprintf("ev-%020d.meta.json", start)), []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
}

// assertOnlyColumnar fails unless dir holds nothing but .col segments
// and their sidecars (plus names containing allow, when non-empty).
func assertOnlyColumnar(t *testing.T, dir, allow string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if allow != "" && strings.Contains(name, allow) {
			continue
		}
		if !strings.HasSuffix(name, colExt) && !strings.HasSuffix(name, colMetaSuffix) {
			t.Fatalf("%s left in the archive directory", name)
		}
	}
}

// TestAppendQueryRotation drives three time buckets through rotation
// and checks what the planner sees: per-segment quantum bounds that
// let a range query skip, Bloom filters that let a keyword query skip,
// and records in eviction order through ScanPred.
func TestAppendQueryRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentEvents: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Segments: {1,2} quanta 0..19, {3,4} quanta 100..119, {5} tail 200..209.
	for i, r := range []Record{
		rec(1, 0, 9, "earthquake", "turkey"),
		rec(2, 10, 19, "flood", "river"),
		rec(3, 100, 109, "storm", "coast"),
		rec(4, 110, 119, "election", "debate"),
		rec(5, 200, 209, "wildfire", "evacuation"),
	} {
		if err := l.Append(r); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if n := l.SegmentCount(); n != 3 {
		t.Fatalf("segments = %d, want 3", n)
	}
	if n := l.EventCount(); n != 5 {
		t.Fatalf("events = %d, want 5", n)
	}
	views := l.Segments()
	if len(views) != 3 || !views[0].Sealed || !views[1].Sealed || views[2].Sealed {
		t.Fatalf("views = %+v, want two sealed and the tail", views)
	}

	// Full range: everything, in eviction order.
	if got := seqs(records(t, l, 0, -1, "")); !slices.Equal(got, []uint64{1, 2, 3, 4, 5}) {
		t.Fatalf("full scan = %v", got)
	}

	// The middle bucket's bounds let a [100,119] query skip the others.
	var hit []int
	for i, v := range views {
		if v.MaxQuantum >= 100 && v.MinQuantum <= 119 {
			hit = append(hit, i)
		}
	}
	if !slices.Equal(hit, []int{1}) {
		t.Fatalf("views overlapping [100,119] = %v, want just the middle one", hit)
	}
	if got := seqs(records(t, l, 100, 119, "")); !slices.Equal(got, []uint64{3, 4}) {
		t.Fatalf("mid range = %v", got)
	}

	// Keyword in one sealed segment: the other filters refute it, the
	// tail's included.
	for i, v := range views {
		if v.MayContain("storm") != (i == 1) {
			t.Fatalf("view %d MayContain(storm) = %v", i, v.MayContain("storm"))
		}
		if v.MayContain("nosuchkeyword") {
			t.Fatalf("view %d admits an absent keyword", i)
		}
	}
	if !views[2].MayContain("wildfire") {
		t.Fatal("tail filter misses an appended keyword")
	}
	if got := seqs(records(t, l, 0, -1, "storm")); !slices.Equal(got, []uint64{3}) {
		t.Fatalf("storm = %v", got)
	}
}

// TestBucketRotationByQuanta rotates on time span even when the event
// count stays under the segment cap.
func TestBucketRotationByQuanta(t *testing.T) {
	l, err := Open(t.TempDir(), Options{SegmentEvents: 100, BucketQuanta: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(1, 0, 10, "a")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(2, 40, 60, "b")); err != nil { // span 0..60 ≥ 50: rotate
		t.Fatal(err)
	}
	if err := l.Append(rec(3, 100, 110, "c")); err != nil {
		t.Fatal(err)
	}
	if n := l.SegmentCount(); n != 2 {
		t.Fatalf("segments = %d, want 2 (time-bucket rotation)", n)
	}
}

// TestReopenDedup reopens an archive and verifies replayed (duplicate)
// ordinals are dropped while fresh ones append — the WAL-replay
// idempotence contract — and that a kill loses exactly the tail
// appended since the last Sync.
func TestReopenDedup(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentEvents: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if err := l.Append(rec(i, int(i)*10, int(i)*10+5, fmt.Sprintf("kw%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// No Sync, no Close: a kill loses the tail {3}, never the sealed {1,2}.
	killed, err := Open(dir, Options{SegmentEvents: 2})
	if err != nil {
		t.Fatal(err)
	}
	if killed.LastSeq() != 2 {
		t.Fatalf("reopen without Sync: LastSeq = %d, want 2", killed.LastSeq())
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	assertOnlyColumnar(t, dir, "")
	// Sync then kill: the synced tail comes back as a sealed segment.
	l2, err := Open(dir, Options{SegmentEvents: 2})
	if err != nil {
		t.Fatal(err)
	}
	if l2.LastSeq() != 3 {
		t.Fatalf("LastSeq after reopen = %d, want 3", l2.LastSeq())
	}
	// Replayed evictions 1..3 are dropped; 4 is new.
	for i := uint64(1); i <= 4; i++ {
		if err := l2.Append(rec(i, int(i)*10, int(i)*10+5, fmt.Sprintf("kw%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := seqs(records(t, l2, 0, -1, "")); !slices.Equal(got, []uint64{1, 2, 3, 4}) {
		t.Fatalf("records after dedup = %v, want 1..4", got)
	}
	// An ordinal gap (records lost for good) is skipped over and
	// counted, not allowed to wedge all future archiving.
	if err := l2.Append(rec(99, 0, 1, "gap")); err != nil {
		t.Fatalf("gap append failed: %v", err)
	}
	if l2.Gaps() != 1 || l2.LastSeq() != 99 {
		t.Fatalf("gaps = %d lastSeq = %d, want 1/99", l2.Gaps(), l2.LastSeq())
	}
	if err := l2.Append(rec(100, 0, 1, "after-gap")); err != nil {
		t.Fatalf("append after gap: %v", err)
	}
}

// TestTornTailTruncated converts a legacy JSONL segment whose last line
// a crash mid-append left torn: Open drops the torn record, converts
// the rest, deletes the v1 file, and re-accepts that ordinal.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	writeLegacy(t, dir, 1, []Record{rec(1, 0, 5, "alpha"), rec(2, 6, 9, "beta")}, `{"seq":3,"id":30,"torn`)
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if l.LastSeq() != 2 {
		t.Fatalf("LastSeq = %d, want 2 (torn record dropped)", l.LastSeq())
	}
	assertOnlyColumnar(t, dir, "")
	if err := l.Append(rec(3, 10, 15, "gamma")); err != nil {
		t.Fatal(err)
	}
	all := records(t, l, 0, -1, "")
	if len(all) != 3 || all[2].Keywords[0] != "gamma" {
		t.Fatalf("records after torn-tail recovery = %v", all)
	}
	if l.QuarantinedSegments() != 0 {
		t.Fatal("a torn tail is not corruption")
	}
}

// TestCorruptSealedSegmentQuarantined flips a byte inside a sealed
// segment's block: the CRC check turns the scan into an error wrapping
// ErrCorrupt, Quarantine renames the files aside and drops the segment,
// and the surviving history keeps serving — including after a reopen.
func TestCorruptSealedSegmentQuarantined(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentEvents: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 4; i++ { // 3 seal a segment, 1 stays in the tail
		if err := l.Append(rec(i, int(i)*10, int(i)*10+5, "kw")); err != nil {
			t.Fatal(err)
		}
	}
	path := l.colPath(1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0x40 // inside the last block's payload
	if err := vfs.OS.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	views := l.Segments()
	_, _, err = views[0].Scan(func(Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("scan over corrupt sealed segment: %v, want ErrCorrupt", err)
	}
	if !views[0].Quarantine() || views[0].Quarantine() {
		t.Fatal("Quarantine must succeed exactly once")
	}
	if got := l.QuarantinedSegments(); got != 1 {
		t.Fatalf("QuarantinedSegments = %d, want 1", got)
	}
	// The damaged files are renamed aside, not deleted.
	if _, err := os.Stat(path + quarantineSuffix); err != nil {
		t.Fatalf("quarantined data file: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt data file still at its serving path")
	}
	// Only the tail's record survives, now and after a reopen.
	if got := seqs(records(t, l, 0, -1, "")); !slices.Equal(got, []uint64{4}) {
		t.Fatalf("post-quarantine records = %v, want [4]", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{SegmentEvents: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := seqs(records(t, l2, 0, -1, "")); !slices.Equal(got, []uint64{4}) {
		t.Fatalf("records after reopen = %v, want [4]", got)
	}
}

// TestBloomNoFalseNegatives is the Bloom correctness property the
// skipping depends on: an added keyword is always reported present.
func TestBloomNoFalseNegatives(t *testing.T) {
	bf := newBloom()
	for i := 0; i < 1000; i++ {
		bf.add(fmt.Sprintf("keyword-%d", i))
	}
	for i := 0; i < 1000; i++ {
		if !bf.mayContain(fmt.Sprintf("keyword-%d", i)) {
			t.Fatalf("false negative for keyword-%d", i)
		}
	}
	// And at this load the false-positive rate stays usable.
	fp := 0
	for i := 0; i < 1000; i++ {
		if bf.mayContain(fmt.Sprintf("absent-%d", i)) {
			fp++
		}
	}
	if fp > 200 {
		t.Fatalf("false positives = %d/1000, filter useless", fp)
	}
}
