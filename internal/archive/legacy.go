package archive

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// Legacy v1 archives stored each segment as JSON lines, one record per
// line (ev-<seq>.jsonl), with a sidecar at ev-<seq>.meta.json; the
// newest segment was appended to in place, so a crash could leave a
// torn final line. Open converts every such segment it finds into a
// same-name .col segment and deletes the v1 files — the only place
// the v1 line format is still read.
const (
	legacyExt     = ".jsonl"
	legacyMetaExt = ".meta.json"
)

// legacySegNum parses a legacy data file or sidecar name. Sidecars of
// .col segments end in ".meta.json" too, but "<seq>.col" is not a
// number, so they never match.
func legacySegNum(name string) (uint64, bool) {
	if n, ok := segNum(name, legacyExt); ok {
		return n, true
	}
	return segNum(name, legacyMetaExt)
}

// convertLegacy rewrites legacy segment ev-<start>.jsonl as
// ev-<start>.col plus sidecar, then deletes the v1 data file and
// sidecar; ok reports whether a segment was written. Nothing is
// written when the file holds no intact record or when a loaded .col
// segment already covers its ordinal range (a compaction that crashed
// after its commit rename left both). The v1 sidecar is never read:
// the records are the truth, so a stale sidecar cannot mislead. Damage
// other than a torn final line — an unparseable or out-of-order record
// with more lines after it — converts the intact prefix and renames the
// v1 file aside (quarantineSuffix) instead of deleting it, as does a
// .col name clash that does not cover the records.
//
// Crash safety: the .col is committed (tmp + fsync + rename) before any
// v1 file is deleted, and the sidecar is deleted before the data file,
// so a crash at any step leaves either the v1 data file for the next
// Open to convert again — finding the .col covering it — or nothing.
func (l *Log) convertLegacy(start uint64, cols []segMeta) (m segMeta, ok bool, err error) {
	name := filepath.Join(l.dir, fmt.Sprintf("%s%020d", segPrefix, start))
	data, side := name+legacyExt, name+legacyMetaExt
	raw, err := l.fs.ReadFile(data)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return segMeta{}, false, fmt.Errorf("archive: read legacy segment %d: %w", start, err)
	}
	recs, damaged := parseLegacy(raw)
	switch {
	case len(recs) == 0 || slices.ContainsFunc(cols, func(o segMeta) bool {
		return covers(&o, recs[0].Seq, recs[len(recs)-1].Seq)
	}):
		// Nothing the archive does not already hold.
	case slices.ContainsFunc(cols, func(o segMeta) bool { return o.File == start }):
		damaged = true // never overwrite a segment
	default:
		if m, err = l.writeSegment(start, recs); err != nil {
			return segMeta{}, false, fmt.Errorf("archive: convert legacy segment %d: %w", start, err)
		}
		ok = true
	}
	// Best effort: a v1 file that survives is converted again, and found
	// covered, by the next Open.
	l.fs.Remove(side) //nolint:errcheck // best effort
	if damaged {
		l.fs.Rename(data, data+quarantineSuffix) //nolint:errcheck // best effort
		l.quarantined++
	} else {
		l.fs.Remove(data) //nolint:errcheck // best effort
	}
	return m, ok, nil
}

// parseLegacy decodes v1 JSON lines up to the first line that is
// unterminated, does not parse, or does not advance the ordinal.
// damaged reports that complete lines follow that point: a torn final
// line is the expected trace of a crash mid-append, anything after it
// is corruption.
func parseLegacy(raw []byte) (recs []Record, damaged bool) {
	for len(raw) > 0 {
		nl := bytes.IndexByte(raw, '\n')
		if nl < 0 {
			return recs, false // unterminated final line: torn
		}
		line := raw[:nl]
		raw = raw[nl+1:]
		if len(line) == 0 {
			continue
		}
		var rec Record
		if json.Unmarshal(line, &rec) != nil || (len(recs) > 0 && rec.Seq <= recs[len(recs)-1].Seq) {
			return recs, len(bytes.TrimSpace(raw)) > 0
		}
		recs = append(recs, rec)
	}
	return recs, false
}
