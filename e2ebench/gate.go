package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"repro/internal/detect"
	"repro/internal/eval"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/stream"
	"repro/internal/tracegen"
)

// reference is an in-process detector run over the same quanta the
// server received, trimmed after every batch exactly as the server's
// retention policy does. It is what the server's outputs must equal.
type reference struct {
	det *detect.Detector
	// frames[q-1] is the SSE payload quantum q must produce.
	frames [][]byte
	// evicted holds the events trimmed off the retained history, in
	// eviction order; evictedAt maps their IDs to the number of applied
	// batches after which they were gone.
	evicted   []*detect.Event
	evictedAt map[uint64]int
}

// runReference applies the first n batches to a fresh detector.
func runReference(batches [][]stream.Message, n int) *reference {
	d := detect.New(detectConfig())
	r := &reference{det: d, evictedAt: make(map[uint64]int)}
	applied := 0
	d.SetOnEvict(func(ev *detect.Event) {
		r.evicted = append(r.evicted, ev)
		r.evictedAt[ev.ID] = applied
	})
	for i := 0; i < n; i++ {
		applied = i + 1
		for _, m := range batches[i] {
			for _, res := range d.IngestAll(m) {
				payload, err := json.Marshal(&server.StreamEvent{
					Tenant:   tenant,
					Quantum:  res.Quantum,
					Reports:  res.Reports,
					Born:     res.Born,
					Ended:    res.Ended,
					Merged:   res.Merged,
					AKGNodes: res.AKGNodes,
					AKGEdges: res.AKGEdges,
				})
				if err != nil {
					panic("e2ebench: marshal reference frame: " + err.Error())
				}
				r.frames = append(r.frames, payload)
			}
		}
		d.TrimFinished(retain)
	}
	return r
}

// history is every event the reference ever tracked, ID-ascending.
func (r *reference) history() []*detect.Event {
	out := append(slices.Clone(r.evicted), r.det.AllEvents()...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// retainedAround picks the newest event the server retains throughout
// quanta [q-margin, q+margin], for /events/{id} reads.
func (r *reference) retainedAround(q, margin int) (uint64, bool) {
	var best *detect.Event
	for _, ev := range r.history() {
		if ev.BornQuantum > q-margin || ev.BornQuantum <= 0 {
			continue
		}
		if at, gone := r.evictedAt[ev.ID]; gone && at <= q+margin {
			continue
		}
		if best == nil || ev.BornQuantum > best.BornQuantum {
			best = ev
		}
	}
	if best == nil {
		return 0, false
	}
	return best.ID, true
}

// queryEventOf projects a detector event onto the unified query
// engine's result shape, as the server does for retained events.
func queryEventOf(ev *detect.Event) query.Event {
	all := make([]string, 0, len(ev.AllKeywords))
	for kw := range ev.AllKeywords {
		all = append(all, kw)
	}
	slices.Sort(all)
	return query.Event{
		ID:            ev.ID,
		State:         ev.State.String(),
		Keywords:      ev.Keywords,
		AllKeywords:   all,
		Rank:          ev.Rank,
		PeakRank:      ev.PeakRank,
		BornQuantum:   ev.BornQuantum,
		LastQuantum:   ev.LastQuantum,
		Evolved:       ev.Evolved,
		Size:          ev.Size,
		Support:       ev.Support,
		Reported:      ev.Reported,
		FirstReported: ev.FirstReported,
		MergedInto:    ev.MergedInto,
		SplitFrom:     ev.SplitFrom,
		Spurious:      ev.Spurious(),
	}
}

// eventViewOf projects a detector event onto the /events JSON shape.
func eventViewOf(ev *detect.Event) server.EventView {
	return server.EventView{
		ID:            ev.ID,
		State:         ev.State.String(),
		Keywords:      ev.Keywords,
		Rank:          ev.Rank,
		PeakRank:      ev.PeakRank,
		RankHistory:   ev.RankHistory,
		BornQuantum:   ev.BornQuantum,
		LastQuantum:   ev.LastQuantum,
		Evolved:       ev.Evolved,
		Size:          ev.Size,
		Support:       ev.Support,
		Reported:      ev.Reported,
		FirstReported: ev.FirstReported,
		MergedInto:    ev.MergedInto,
		SplitFrom:     ev.SplitFrom,
		Spurious:      ev.Spurious(),
	}
}

// sameJSON compares two values by their JSON encoding: exact, since
// float64 values round-trip through encoding/json unchanged.
func sameJSON(a, b any) (bool, error) {
	ja, err := json.Marshal(a)
	if err != nil {
		return false, err
	}
	jb, err := json.Marshal(b)
	if err != nil {
		return false, err
	}
	return bytes.Equal(ja, jb), nil
}

// checkFrames verifies the SSE stream: exactly one frame per applied
// quantum, in order, each byte-identical to the reference's.
func checkFrames(frames []sseFrame, ref *reference) error {
	if len(frames) != len(ref.frames) {
		return fmt.Errorf("SSE delivered %d frames, reference produced %d quanta", len(frames), len(ref.frames))
	}
	for i, f := range frames {
		if f.quantum != i+1 {
			return fmt.Errorf("SSE frame %d carries quantum %d", i+1, f.quantum)
		}
		if !bytes.Equal(f.data, ref.frames[i]) {
			return fmt.Errorf("SSE frame for quantum %d differs from the reference:\n server:    %.300s\n reference: %.300s",
				f.quantum, f.data, ref.frames[i])
		}
	}
	return nil
}

// checkHistory verifies the server's full event history (live and
// archived, via /query) and its retained history (/events?all=1)
// against the reference.
func checkHistory(full []query.Event, retained []server.EventView, ref *reference) error {
	want := ref.history()
	if len(full) != len(want) {
		return fmt.Errorf("server history holds %d events, reference %d", len(full), len(want))
	}
	sort.Slice(full, func(i, j int) bool { return full[i].ID < full[j].ID })
	for i := range want {
		w := queryEventOf(want[i])
		ok, err := sameJSON(full[i], w)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("event %d differs from the reference: server %+v, reference %+v", w.ID, full[i], w)
		}
	}
	live := ref.det.AllEvents()
	if len(retained) != len(live) {
		return fmt.Errorf("server retains %d events, reference %d", len(retained), len(live))
	}
	for i := range live {
		w := eventViewOf(live[i])
		ok, err := sameJSON(retained[i], w)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("retained event %d differs from the reference", w.ID)
		}
	}
	return nil
}

// quality scores the server's history against the ground truth of the
// real events that fit entirely inside the ingested prefix.
func quality(gt *tracegen.GroundTruth, full []query.Event, ingestedMsgs int) eval.Result {
	var inside tracegen.GroundTruth
	for _, g := range gt.Events {
		if g.EndMsg < ingestedMsgs {
			inside.Events = append(inside.Events, g)
		}
	}
	events := make([]*detect.Event, 0, len(full))
	for i := range full {
		e := &full[i]
		kws := e.AllKeywords
		if len(kws) == 0 {
			kws = e.Keywords
		}
		all := make(map[string]struct{}, len(kws))
		for _, kw := range kws {
			all[kw] = struct{}{}
		}
		events = append(events, &detect.Event{
			ID:            e.ID,
			BornQuantum:   e.BornQuantum,
			LastQuantum:   e.LastQuantum,
			Keywords:      e.Keywords,
			Rank:          e.Rank,
			PeakRank:      e.PeakRank,
			Size:          e.Size,
			Support:       e.Support,
			Reported:      e.Reported,
			FirstReported: e.FirstReported,
			AllKeywords:   all,
		})
	}
	return eval.Evaluate(&inside, events, delta)
}

// checkRead validates one read response against the reference history:
// every event it names must exist there with the same birth quantum,
// keyword filters must hold, and a point read must return its event.
func checkRead(q plannedQuery, body []byte, born map[uint64]int) error {
	type ev struct {
		ID          uint64   `json:"id"`
		BornQuantum int      `json:"born_quantum"`
		LastQuantum int      `json:"last_quantum"`
		Keywords    []string `json:"keywords"`
		AllKeywords []string `json:"all_keywords"`
	}
	var evs []ev
	switch q.kind {
	case qEvent:
		var e ev
		if err := json.Unmarshal(body, &e); err != nil {
			return fmt.Errorf("%s: %w", q.path, err)
		}
		if e.ID != q.id {
			return fmt.Errorf("%s returned event %d", q.path, e.ID)
		}
		evs = []ev{e}
	case qRelated:
		var r struct {
			Related []json.RawMessage `json:"related"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("%s: %w", q.path, err)
		}
		if r.Related == nil {
			return fmt.Errorf("%s: no related list", q.path)
		}
		return nil
	default:
		var r struct {
			Events []ev `json:"events"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("%s: %w", q.path, err)
		}
		if r.Events == nil {
			return fmt.Errorf("%s: no events list", q.path)
		}
		evs = r.Events
	}
	for _, e := range evs {
		b, ok := born[e.ID]
		if !ok || b != e.BornQuantum {
			return fmt.Errorf("%s returned event %d (born %d) the reference does not hold", q.path, e.ID, e.BornQuantum)
		}
		if q.keyword != "" {
			kws := e.AllKeywords
			if q.kind == qKeyword || len(kws) == 0 {
				kws = e.Keywords
			}
			if !slices.Contains(kws, q.keyword) {
				return fmt.Errorf("%s returned event %d without keyword %q", q.path, e.ID, q.keyword)
			}
		}
		if q.kind == qRange && (e.LastQuantum < q.from || e.BornQuantum > q.to) {
			return fmt.Errorf("%s returned event %d spanning [%d,%d]", q.path, e.ID, e.BornQuantum, e.LastQuantum)
		}
	}
	return nil
}
