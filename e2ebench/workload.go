package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"time"

	"repro/internal/akg"
	"repro/internal/detect"
	"repro/internal/stream"
	"repro/internal/tracegen"
)

// The server configuration every workload shares: the paper's Table 2
// nominal parameters, durable group-commit WAL, bounded retention with
// an on-disk archive, and the default WAL snapshot cadence. Only the
// traffic differs between workloads.
const (
	tenant         = "bench"
	delta          = 160
	tau            = 4
	beta           = 0.20
	window         = 30
	retain         = 16
	groupCommit    = 500 * time.Microsecond
	unseenWindow   = 4    // closed loop: applied-but-unseen quanta in flight
	probeQueries   = 2000 // reads issued after ingest on the ingest workloads
	probePause     = time.Millisecond
	queriesPerSec  = 100 // mixed-read: open-loop GET rate
	queryRangeSpan = 600 // quanta covered by a /query time range
)

// detectConfig is the detector configuration matching the server flags.
func detectConfig() detect.Config {
	return detect.Config{Delta: delta, AKG: akg.Config{Tau: tau, Beta: beta, Window: window}}
}

// serverFlags are the cmd/serve flags for one run; dir holds the WAL
// and archive directories.
func serverFlags(addr, dir string) []string {
	return []string{
		"-addr", addr,
		"-delta", fmt.Sprint(delta),
		"-tau", fmt.Sprint(tau),
		"-beta", fmt.Sprint(beta),
		"-w", fmt.Sprint(window),
		"-wal-dir", dir + "/wal",
		"-wal-group-commit-interval", groupCommit.String(),
		"-retain", fmt.Sprint(retain),
		"-archive-dir", dir + "/archive",
		"-grace", "10s",
	}
}

// workload is one traffic mix against the shared server configuration.
type workload struct {
	name string
	// openLoop workloads send ingest and reads on a fixed schedule;
	// closed-loop ones send the next quantum once at most unseenWindow
	// sent quanta lack their SSE frame.
	openLoop bool
	// warmQuanta are ingested (and their frames awaited) during set-up,
	// before anything is timed.
	warmQuanta int
	// quantaPerSec caps the closed-loop plan (it is never reached; the
	// run stops at the deadline) or sets the open-loop ingest rate.
	quantaPerSec float64
}

var workloads = []workload{
	{name: "tw-ingest", warmQuanta: 40, quantaPerSec: 400},
	{name: "flood-ingest", warmQuanta: 100, quantaPerSec: 150},
	{name: "mixed-read", openLoop: true, warmQuanta: 40, quantaPerSec: 100},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// queryKind is one of the read endpoints the workloads exercise.
type queryKind int

const (
	qTopK queryKind = iota
	qEvent
	qRelated
	qKeyword
	qRange
)

// plannedQuery is one GET, fully formed before the server starts.
type plannedQuery struct {
	kind    queryKind
	path    string
	keyword string
	id      uint64
	from    int
	to      int
	// due is the send time relative to the start of the measured phase
	// (open loop only).
	due time.Duration
}

// plan is every byte one run may send, built from tracegen composers
// before the server starts.
type plan struct {
	w       workload
	seed    int64
	batches [][]stream.Message // one quantum each; warm-up first
	bodies  [][]byte           // batches[i] marshalled as the POST body
	gt      *tracegen.GroundTruth
	// ingestEvery is the open-loop ingest period (one quantum per POST).
	ingestEvery time.Duration
	queries     []plannedQuery
	// ref is the reference run over the whole plan, made while planning
	// the open-loop workload (it picks the event IDs to read).
	ref    *reference
	digest string
}

// buildPlan composes the traffic of workload w for seed, sized for a
// measured phase of the given length. maxQuanta, when positive, caps
// the measured quanta (smoke tests).
func buildPlan(w workload, seed int64, seconds float64, maxQuanta int) (*plan, error) {
	measured := int(math.Ceil(seconds * w.quantaPerSec))
	if maxQuanta > 0 && measured > maxQuanta {
		measured = maxQuanta
	}
	total := w.warmQuanta + measured
	p := &plan{w: w, seed: seed}
	var msgs []stream.Message
	switch w.name {
	case "tw-ingest":
		var gt tracegen.GroundTruth
		msgs, gt = tracegen.Generate(tracegen.TWConfig(seed, total*delta))
		p.gt = &gt
	case "mixed-read":
		var gt tracegen.GroundTruth
		msgs, gt = tracegen.Generate(tracegen.ESConfig(seed, total*delta))
		p.gt = &gt
	case "flood-ingest":
		msgs = tracegen.FloodConfig{Seed: seed}.Messages(0, total*delta)
	default:
		return nil, fmt.Errorf("unknown workload %q", w.name)
	}
	for i := 0; i+delta <= len(msgs); i += delta {
		b := msgs[i : i+delta]
		body, err := json.Marshal(b)
		if err != nil {
			return nil, fmt.Errorf("marshal quantum %d: %w", i/delta, err)
		}
		p.batches = append(p.batches, b)
		p.bodies = append(p.bodies, body)
	}
	if len(p.batches) <= w.warmQuanta {
		return nil, fmt.Errorf("plan for %s holds %d quanta, warm-up needs %d", w.name, len(p.batches), w.warmQuanta)
	}
	if w.openLoop {
		p.ingestEvery = time.Duration(float64(time.Second) / w.quantaPerSec)
		p.ref = runReference(p.batches, len(p.batches))
		p.queries = p.scheduledQueries(seconds, measured)
	} else {
		p.queries = p.probeQueries()
	}
	p.digest = p.computeDigest()
	return p, nil
}

// keywordAt returns a keyword of the ground-truth real event active at
// message position pos, or of the latest one that ended before it; back
// selects an event at least back events older, so range queries reach
// into the archive.
func (p *plan) keywordAt(pos, back, salt int) string {
	if p.gt == nil {
		return tracegen.FloodConfig{Seed: p.seed}.Keyword(salt * 8)
	}
	var cands []tracegen.GTEvent
	for _, g := range p.gt.OfKind(tracegen.Real) {
		if g.StartMsg <= pos {
			cands = append(cands, g)
		}
	}
	if len(cands) == 0 {
		cands = p.gt.OfKind(tracegen.Real)
	}
	if len(cands) == 0 {
		return "earthquake"
	}
	i := len(cands) - 1 - back
	if i < 0 {
		i = 0
	}
	g := cands[i]
	return g.Keywords[salt%max(g.Core, 1)]
}

func (p *plan) tenantPath(q string) string { return "/v1/" + tenant + q }

// query builds the GET of the given kind for a read issued when about
// quantum q has been applied.
func (p *plan) query(kind queryKind, q, salt int) plannedQuery {
	pos := q * delta
	pq := plannedQuery{kind: kind}
	switch kind {
	case qTopK:
		pq.path = p.tenantPath("/events?k=10")
	case qRelated:
		pq.path = p.tenantPath("/related?min=0.1")
	case qKeyword:
		pq.keyword = p.keywordAt(pos, 0, salt)
		pq.path = p.tenantPath("/events?k=10&keyword=" + url.QueryEscape(pq.keyword))
	case qRange:
		pq.keyword = p.keywordAt(pos, salt%4, salt)
		pq.from = max(0, q-queryRangeSpan)
		pq.to = q
		pq.path = p.tenantPath(fmt.Sprintf("/query?from=%d&to=%d&keyword=%s&limit=20",
			pq.from, pq.to, url.QueryEscape(pq.keyword)))
	}
	return pq
}

// probeQueries is the read probe of the ingest workloads: a fixed
// closed-loop mix over the state the ingest phase left behind.
func (p *plan) probeQueries() []plannedQuery {
	kinds := []queryKind{qTopK, qRelated, qKeyword, qRange}
	out := make([]plannedQuery, 0, probeQueries)
	last := len(p.batches)
	for i := 0; i < probeQueries; i++ {
		out = append(out, p.query(kinds[i%len(kinds)], last, i/len(kinds)))
	}
	return out
}

// scheduledQueries is mixed-read's open-loop read schedule: all five
// read kinds in rotation at queriesPerSec, with event IDs picked from
// the reference run so each read names an event the server retains
// around its due time.
func (p *plan) scheduledQueries(seconds float64, measured int) []plannedQuery {
	every := time.Second / queriesPerSec
	n := int(seconds * queriesPerSec)
	kinds := []queryKind{qTopK, qEvent, qRelated, qKeyword, qRange}
	out := make([]plannedQuery, 0, n)
	for i := 0; i < n; i++ {
		due := time.Duration(i)*every + every/2
		q := p.w.warmQuanta + int(due/p.ingestEvery)
		if q > p.w.warmQuanta+measured {
			q = p.w.warmQuanta + measured
		}
		kind := kinds[i%len(kinds)]
		var pq plannedQuery
		if kind == qEvent {
			if id, ok := p.ref.retainedAround(q, 50); ok {
				pq = plannedQuery{kind: qEvent, id: id, path: p.tenantPath(fmt.Sprintf("/events/%d", id))}
			} else {
				pq = p.query(qTopK, q, i)
			}
		} else {
			pq = p.query(kind, q, i/len(kinds))
		}
		pq.due = due
		out = append(out, pq)
	}
	return out
}

// computeDigest hashes everything the plan sends, in order: two runs
// with equal digests sent identical bytes.
func (p *plan) computeDigest() string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	h.Write([]byte(p.w.name))
	put(p.seed)
	put(int64(p.ingestEvery))
	for _, b := range p.bodies {
		put(int64(len(b)))
		h.Write(b)
	}
	for _, q := range p.queries {
		put(int64(q.due))
		h.Write([]byte(q.path))
	}
	return hex.EncodeToString(h.Sum(nil))
}
