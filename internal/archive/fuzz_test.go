package archive

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/vfs"
)

// FuzzBlockDecode drives decodeBlock with arbitrary bytes: corrupt or
// truncated payloads must return an error, never panic, never run away.
// (In production a CRC-32C frame check sits in front of the decoder,
// so this is defense in depth for the untrusted-bytes path.)
func FuzzBlockDecode(f *testing.F) {
	var enc blockEncoder
	seeds := [][]Record{
		{rec(1, 0, 5, "alpha", "beta"), rec(2, 3, 9, "alpha"), rec(7, -2, 100)},
		variedRecords(),
		{rec(1, 0, 0)},
	}
	for _, recs := range seeds {
		payload, _, err := enc.encode(recs)
		if err != nil {
			f.Fatal(err)
		}
		p := append([]byte(nil), payload...)
		f.Add(p)
		f.Add(p[:len(p)/2])    // truncation
		f.Add(append(p, 0xff)) // trailing garbage
		mut := append([]byte(nil), p...)
		mut[len(mut)/3] ^= 0x40 // bit flip
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, payload []byte) {
		sc := new(blockScratch)
		emitted := 0
		n, err := decodeBlock(payload, sc, func(r *Record) error {
			emitted++
			// Touching every field catches out-of-bounds arena slices.
			_ = r.State
			for _, kw := range r.Keywords {
				_ = kw
			}
			for _, kw := range r.AllKeywords {
				_ = kw
			}
			return nil
		})
		if err != nil {
			return // rejected cleanly — the only requirement
		}
		if n != emitted {
			t.Fatalf("decode reported %d records, emitted %d", n, emitted)
		}
		if n > maxBlockRecords {
			t.Fatalf("decode emitted %d records from a %d-byte payload", n, len(payload))
		}
	})
}

// FuzzOpenArchiveDir feeds arbitrary bytes to the two on-disk inputs
// Open trusts least: legacy is written as a v1 JSONL segment (the
// converter's input) and sidecar as the .col.meta.json next to a valid
// segment. Open plus a full scan of every segment must succeed or
// return an error — never panic, and never allocate more than a
// constant factor of the bytes on disk (a sidecar must not be able to
// make a scan buffer a frame larger than the file).
func FuzzOpenArchiveDir(f *testing.F) {
	var legacy bytes.Buffer
	for _, r := range seedRecords(6) {
		line, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		legacy.Write(line)
		legacy.WriteByte('\n')
	}
	dir := f.TempDir()
	l, err := Open(dir, Options{SegmentEvents: 4, BlockEvents: 2})
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range fuzzSegment {
		if err := l.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	seg := fuzzSegment[0].Seq
	col, err := os.ReadFile(l.colPath(seg))
	if err != nil {
		f.Fatal(err)
	}
	sidecar, err := os.ReadFile(l.colMetaPath(seg))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy.Bytes(), sidecar)
	f.Add(legacy.Bytes()[:legacy.Len()/2], sidecar[:len(sidecar)/2])
	f.Add([]byte("not json\n{\"seq\":9}\n"), bytes.Replace(sidecar, []byte(`"len": `), []byte(`"len": 6`), 1))
	f.Add([]byte(`{"seq":1}`+"\n"+`{"seq":1}`+"\n"), bytes.Replace(sidecar, []byte(`"bloom_k": `), []byte(`"bloom_k": 9`), 1))
	f.Add([]byte{}, []byte(`{"count":4,"blocks":[{"off":41,"len":67108000,"count":4}]}`))

	f.Fuzz(func(t *testing.T, legacy, sidecar []byte) {
		dir := t.TempDir()
		if err := vfs.OS.WriteFile(filepath.Join(dir, fmt.Sprintf("ev-%020d.col", seg)), col, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := vfs.OS.WriteFile(filepath.Join(dir, fmt.Sprintf("ev-%020d.col.meta.json", seg)), sidecar, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := vfs.OS.WriteFile(filepath.Join(dir, "ev-00000000000000000001.jsonl"), legacy, 0o644); err != nil {
			t.Fatal(err)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		l, err := Open(dir, Options{FS: noSyncFS{vfs.OS}})
		if err != nil {
			return // rejected cleanly
		}
		for _, v := range l.Segments() {
			v.MayContain("alpha")
			v.ScanPred(Pred{To: -1, Keywords: []string{"alpha"}}, func(r *Record) error { //nolint:errcheck // an error is an allowed outcome
				_ = len(r.State) + len(r.Keywords) + len(r.AllKeywords)
				return nil
			})
		}
		runtime.ReadMemStats(&ms)
		if grew, budget := ms.TotalAlloc-before, uint64(4<<20+256*(len(legacy)+len(sidecar))); grew > budget {
			t.Fatalf("Open+scan allocated %d bytes for %d bytes of input (budget %d)", grew, len(legacy)+len(sidecar), budget)
		}
	})
}

// noSyncFS skips fsyncs: durability is not what the fuzz target
// checks, and a converted legacy input would otherwise pay two per
// execution.
type noSyncFS struct{ vfs.FS }

func (f noSyncFS) Open(name string) (vfs.File, error) { return noSyncFile(f.FS.Open(name)) }

func (f noSyncFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	return noSyncFile(f.FS.OpenFile(name, flag, perm))
}

type noSync struct{ vfs.File }

func (noSync) Sync() error { return nil }

func noSyncFile(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return noSync{f}, nil
}

// fuzzSegment is the valid segment FuzzOpenArchiveDir pairs its sidecar
// bytes with: ordinals above any the legacy input is likely to use.
var fuzzSegment = []Record{
	rec(1000, 0, 5, "alpha", "beta"), rec(1001, 3, 9, "alpha"),
	rec(1002, -2, 100), rec(1003, 7, 8, "gamma"),
}
