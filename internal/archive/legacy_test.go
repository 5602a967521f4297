package archive

import (
	"encoding/json"
	"testing"

	"repro/internal/vfs"
)

// TestConvertLegacyCrashAtEveryStep kills the legacy conversion at every
// filesystem operation Open makes — each open, read, create, write,
// fsync, rename and remove in turn — by failing that operation and every
// later one (a dead process does nothing more), then reopens on the
// healthy filesystem. Every crash point must converge to the same
// exactly-once records, held in .col segments only.
func TestConvertLegacyCrashAtEveryStep(t *testing.T) {
	seed := t.TempDir()
	all := seedRecords(13)
	writeLegacy(t, seed, 1, all[0:4], "")
	writeLegacySidecar(t, seed, 1, 4)
	writeLegacy(t, seed, 5, all[4:8], "")
	writeLegacySidecar(t, seed, 5, 4)
	writeLegacy(t, seed, 9, all[8:13], `{"seq":14,"to`) // the v1 active segment, torn
	snap := snapshotDir(t, seed)
	want, err := json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{SegmentEvents: 4, BlockEvents: 2}

	for step := 0; ; step++ {
		dir := t.TempDir()
		restoreDir(t, dir, snap)
		ffs := vfs.NewFaultFS(nil)
		ffs.Inject(vfs.Rule{After: step}) // every operation from this step on fails
		o := opt
		o.FS = ffs
		_, err := Open(dir, o)
		if ffs.Injected() == 0 {
			// Open finished before reaching this step: every crash point
			// has been covered.
			if err != nil {
				t.Fatalf("fault-free Open: %v", err)
			}
			if step < 10 {
				t.Fatalf("conversion took only %d filesystem operations", step)
			}
			return
		}
		l, err := Open(dir, opt)
		if err != nil {
			t.Fatalf("crash at step %d: reopen: %v", step, err)
		}
		assertOnlyColumnar(t, dir, "")
		if l.LastSeq() != 13 || l.EventCount() != 13 || l.QuarantinedSegments() != 0 {
			t.Fatalf("crash at step %d: lastSeq %d events %d quarantined %d, want 13/13/0",
				step, l.LastSeq(), l.EventCount(), l.QuarantinedSegments())
		}
		if got := queryJSON(t, l, 0, -1, ""); got != string(want) {
			t.Fatalf("crash at step %d: records differ:\n want %s\n have %s", step, want, got)
		}
	}
}

// TestConvertLegacyQuarantinesDamage: damage inside a legacy segment —
// complete lines after an unparseable one — converts the intact prefix
// and sets the v1 file aside for forensics instead of deleting it.
func TestConvertLegacyQuarantinesDamage(t *testing.T) {
	dir := t.TempDir()
	all := seedRecords(4)
	writeLegacy(t, dir, 1, all[0:2], "not json\n"+`{"seq":4,"id":40}`+"\n")
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if l.LastSeq() != 2 || l.QuarantinedSegments() != 1 {
		t.Fatalf("lastSeq %d quarantined %d, want 2/1", l.LastSeq(), l.QuarantinedSegments())
	}
	assertOnlyColumnar(t, dir, quarantineSuffix)
	if _, err := vfs.OS.Stat(l.dir + "/ev-00000000000000000001.jsonl" + quarantineSuffix); err != nil {
		t.Fatalf("damaged v1 file not set aside: %v", err)
	}
}
