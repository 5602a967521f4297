package detect

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/akg"
	"repro/internal/dygraph"
	"repro/internal/stream"
	"repro/internal/tracegen"
)

// eventsDigest summarises the full event history for comparison.
func eventsDigest(d *Detector) string {
	var b bytes.Buffer
	for _, ev := range d.AllEvents() {
		fmt.Fprintf(&b, "%d|%v|%v|born=%d|last=%d|rank=%.6f|peak=%.6f|sup=%d|rep=%v|first=%d|evolved=%v|mqc=%v\n",
			ev.ID, ev.State, ev.Keywords, ev.BornQuantum, ev.LastQuantum,
			ev.Rank, ev.PeakRank, ev.Support, ev.Reported, ev.FirstReported,
			ev.Evolved, ev.ExactMQC)
	}
	return b.String()
}

// TestCheckpointResumeEquivalence is the central persistence property:
// running a trace straight through must equal running half, saving,
// loading into a fresh detector, and running the rest — identical event
// histories, identical graph state.
func TestCheckpointResumeEquivalence(t *testing.T) {
	msgs, _ := tracegen.Generate(tracegen.ESConfig(77, 30000))
	cfg := Config{Delta: 120, TrackCKG: true}

	// Uninterrupted run.
	ref := New(cfg)
	if err := ref.Run(stream.NewSliceSource(msgs), nil); err != nil {
		t.Fatal(err)
	}

	// Split at an arbitrary point (not a quantum boundary: 13001).
	cut := 13001
	d1 := New(cfg)
	for _, m := range msgs[:cut] {
		d1.Ingest(m)
	}
	var buf bytes.Buffer
	if err := d1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs[cut:] {
		d2.Ingest(m)
	}
	d2.Flush()
	ref2 := New(cfg) // re-run reference including the trailing Flush
	_ = ref2
	refDetector := New(cfg)
	if err := refDetector.Run(stream.NewSliceSource(msgs), nil); err != nil {
		t.Fatal(err)
	}

	if got, want := eventsDigest(d2), eventsDigest(refDetector); got != want {
		t.Fatalf("event histories diverge after checkpoint resume:\n--- resumed ---\n%s\n--- reference ---\n%s", got, want)
	}
	if d2.Processed() != refDetector.Processed() {
		t.Fatalf("processed counts differ: %d vs %d", d2.Processed(), refDetector.Processed())
	}
	// Graph-level state must agree too.
	g1 := refDetector.AKG().Engine().Graph()
	g2 := d2.AKG().Engine().Graph()
	if g1.NodeCount() != g2.NodeCount() || g1.EdgeCount() != g2.EdgeCount() {
		t.Fatalf("graphs differ: %d/%d vs %d/%d nodes/edges",
			g1.NodeCount(), g1.EdgeCount(), g2.NodeCount(), g2.EdgeCount())
	}
	if !reflect.DeepEqual(refDetector.AKG().Engine().Snapshot(), d2.AKG().Engine().Snapshot()) {
		t.Fatalf("clusterings differ after resume")
	}
}

func TestCheckpointRoundTripState(t *testing.T) {
	msgs, _ := tracegen.Generate(tracegen.TWConfig(5, 8000))
	d := New(Config{Delta: 100})
	for _, m := range msgs {
		d.Ingest(m)
	}
	s1 := d.State()
	d2, err := FromState(s1)
	if err != nil {
		t.Fatal(err)
	}
	s2 := d2.State()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("State → FromState → State not a fixpoint")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("definitely not gob"))); err == nil {
		t.Fatalf("garbage checkpoint accepted")
	}
	if _, err := FromState(DetectorState{Magic: "wrong"}); err == nil {
		t.Fatalf("bad magic accepted")
	}
}

func TestCheckpointPendingBuffer(t *testing.T) {
	d := New(Config{Delta: 10})
	for i := 0; i < 7; i++ { // partial quantum
		d.Ingest(stream.Message{ID: uint64(i + 1), User: uint64(i), Text: "storm coast"})
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Three more messages should complete the quantum on the restored
	// detector exactly as they would have on the original.
	var res *QuantumResult
	for i := 7; i < 10; i++ {
		res = d2.Ingest(stream.Message{ID: uint64(i + 1), User: uint64(i), Text: "storm coast"})
	}
	if res == nil || res.Quantum != 1 {
		t.Fatalf("restored pending buffer did not complete the quantum")
	}
	if res.Stats.Keywords != 2 {
		t.Fatalf("restored quantum saw %d keywords, want 2", res.Stats.Keywords)
	}
}

// TestFromStateRejectsOutOfRangeIDs: per-keyword state is indexed by
// keyword ID, so a snapshot ID outside the interner's range (or a ring
// whose sorted columns are out of order) must fail the restore with an
// error — never a panic or an allocation sized by the bogus ID.
func TestFromStateRejectsOutOfRangeIDs(t *testing.T) {
	msgs, _ := tracegen.Generate(tracegen.TWConfig(6, 4000))
	d := New(Config{Delta: 100})
	for _, m := range msgs {
		d.Ingest(m)
	}
	good := d.State()
	last := dygraph.NodeID(len(good.Words)) // the highest valid ID
	if len(good.AKG.Present) == 0 || len(good.NounSeen) == 0 {
		t.Fatal("setup: trace left no AKG nodes or nouns")
	}
	// A ring quantum with two keywords, the first with two users.
	qi := slices.IndexFunc(good.AKG.Ring, func(q akg.QuantumObs) bool {
		return len(q.Keywords) >= 2 && len(q.Users[0]) >= 2
	})
	if qi < 0 {
		t.Fatal("setup: no ring quantum with two keywords and two users")
	}
	const huge = dygraph.NodeID(1<<32 - 1)
	cases := []struct {
		name   string
		mutate func(*DetectorState)
	}{
		{"noun-seen ID far outside", func(s *DetectorState) { s.NounSeen = append(s.NounSeen, huge) }},
		{"noun-seen ID one past the last word", func(s *DetectorState) { s.NounSeen = append(s.NounSeen, last+1) }},
		{"ring keyword outside", func(s *DetectorState) {
			kws := s.AKG.Ring[qi].Keywords
			kws[len(kws)-1] = huge
		}},
		{"present keyword outside", func(s *DetectorState) { s.AKG.Present = append(s.AKG.Present, huge) }},
		{"engine node outside", func(s *DetectorState) {
			s.AKG.Engine.Graph.Nodes = append(s.AKG.Engine.Graph.Nodes, huge)
		}},
		{"ring keywords not strictly ascending", func(s *DetectorState) {
			kws := s.AKG.Ring[qi].Keywords
			kws[0], kws[1] = kws[1], kws[0]
		}},
		{"users not strictly ascending", func(s *DetectorState) {
			us := s.AKG.Ring[qi].Users[0]
			us[0], us[1] = us[1], us[0]
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := d.State()
			tc.mutate(&s)
			if _, err := FromState(s); err == nil {
				t.Fatal("corrupt checkpoint accepted")
			}
		})
	}
	// The highest valid ID itself is in range.
	s := d.State()
	if !slices.Contains(s.NounSeen, last) {
		s.NounSeen = append(s.NounSeen, last)
	}
	if _, err := FromState(s); err != nil {
		t.Fatalf("noun-seen ID of the last word rejected: %v", err)
	}
}
