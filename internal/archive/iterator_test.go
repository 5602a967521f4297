package archive

import (
	"errors"
	"testing"
)

func iterRec(seq uint64, born, last int, kws ...string) Record {
	return Record{Seq: seq, ID: seq, State: "ended",
		Keywords: kws, BornQuantum: born, LastQuantum: last}
}

// TestQueryTruncatedOnLimitStop pins the limit-stop contract of
// ScanPred, which the query engine's LIMIT pushdown relies on: a scan
// whose callback returns ErrStop reports stopped and counts only the
// records it handed out, on a multi-block sealed segment and on the
// tail alike, while a scan that reaches the end is never stopped —
// even when its last record is exactly the one that fills the limit.
func TestQueryTruncatedOnLimitStop(t *testing.T) {
	l, err := Open(t.TempDir(), Options{SegmentEvents: 6, BlockEvents: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 9; i++ { // 1..6 seal (3 blocks), 7..9 stay in the tail
		if err := l.Append(iterRec(uint64(i), i, i, "kw")); err != nil {
			t.Fatal(err)
		}
	}
	views := l.Segments()
	if len(views) != 2 || views[0].Blocks() != 3 || views[1].Sealed {
		t.Fatalf("views = %+v, want a 3-block sealed segment and the tail", views)
	}
	for _, v := range views {
		for _, limit := range []int{1, 2, v.Count} {
			n := 0
			bs, stopped, err := v.ScanPred(matchAll(), func(*Record) error {
				if n == limit {
					return ErrStop
				}
				n++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if n != limit || stopped != (limit < v.Count) || bs.Records != min(limit+1, v.Count) {
				t.Fatalf("sealed=%v limit %d: took %d, stopped %v, stats %+v", v.Sealed, limit, n, stopped, bs)
			}
		}
	}
}

// TestSegmentViewPointInTime: a tail view must not see records appended
// after Segments() returned — not even when those appends seal the tail
// into a segment file — and a sealed view scans exactly its count.
func TestSegmentViewPointInTime(t *testing.T) {
	l, err := Open(t.TempDir(), Options{SegmentEvents: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 3; i++ {
		if err := l.Append(iterRec(uint64(i), i, i, "kw")); err != nil {
			t.Fatal(err)
		}
	}
	views := l.Segments()
	if len(views) != 1 || views[0].Sealed || views[0].Count != 3 {
		t.Fatalf("tail view = %+v, want unsealed count 3", views)
	}
	// Concurrent-append simulation: more records land after the view;
	// the fifth seals the tail and the sixth starts a new one.
	for i := 4; i <= 6; i++ {
		if err := l.Append(iterRec(uint64(i), i, i, "kw")); err != nil {
			t.Fatal(err)
		}
	}
	var got []uint64
	bs, stopped, err := views[0].ScanPred(matchAll(), func(r *Record) error {
		got = append(got, r.Seq)
		r.Keywords = nil // callers may scribble on the record: never the tail's
		return nil
	})
	if err != nil || stopped || bs.Records != 3 || len(got) != 3 || got[2] != 3 {
		t.Fatalf("point-in-time scan saw %v (stats %+v, stopped %v, err %v), want exactly 1..3", got, bs, stopped, err)
	}
	now := l.Segments()
	if len(now) != 2 || !now[0].Sealed || now[0].Count != 5 || now[1].Count != 1 {
		t.Fatalf("views after seal = %+v, want sealed 1..5 and tail {6}", now)
	}
	seen, _, err := now[0].Scan(func(r Record) error {
		if len(r.Keywords) != 1 {
			t.Fatalf("record %d lost its keywords through a view", r.Seq)
		}
		return nil
	})
	if err != nil || seen != 5 {
		t.Fatalf("sealed view scanned %d records (err %v), want 5", seen, err)
	}
}

// TestSealedSegmentOverCountIsCorruption: a block that decodes to MORE
// records than its zone map says is corruption and must surface as an
// error wrapping ErrCorrupt, not be silently capped at the zone count.
func TestSealedSegmentOverCountIsCorruption(t *testing.T) {
	l, err := Open(t.TempDir(), Options{SegmentEvents: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 3; i++ {
		if err := l.Append(iterRec(uint64(i), i, i, "kw")); err != nil {
			t.Fatal(err)
		}
	}
	views := l.Segments()
	if len(views) != 1 || !views[0].Sealed || views[0].Blocks() != 1 {
		t.Fatalf("want one single-block sealed segment, got %+v", views)
	}
	v := views[0]
	v.zones = append([]blockZone(nil), v.zones...) // never touch the shared zone maps
	v.zones[0].Count = 2
	if _, _, err := v.Scan(func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("over-count block scanned with err %v, want ErrCorrupt", err)
	}
	// The shared metadata is untouched: a fresh view scans cleanly.
	if seen, _, err := l.Segments()[0].Scan(func(Record) error { return nil }); err != nil || seen != 3 {
		t.Fatalf("fresh view: %d records, err %v", seen, err)
	}
}

// TestSegmentViewScanStop: ErrStop from the callback ends the scan
// early and is reported as stopped, not as an error.
func TestSegmentViewScanStop(t *testing.T) {
	l, err := Open(t.TempDir(), Options{SegmentEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 4; i++ {
		if err := l.Append(iterRec(uint64(i), i, i, "kw")); err != nil {
			t.Fatal(err)
		}
	}
	views := l.Segments()
	if len(views) != 1 || !views[0].Sealed {
		t.Fatalf("want one sealed segment, got %+v", views)
	}
	n := 0
	seen, stopped, err := views[0].Scan(func(Record) error {
		n++
		if n == 2 {
			return ErrStop
		}
		return nil
	})
	if err != nil || !stopped || seen != 2 {
		t.Fatalf("stopped scan = seen %d stopped %v err %v, want 2 true nil", seen, stopped, err)
	}
}
