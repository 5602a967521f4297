package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/akg"
	"repro/internal/ckg"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/dygraph"
	"repro/internal/stream"
	"repro/internal/textproc"
)

// The traced run splits its measured time between three phases: the
// staged pipeline, then the in-process server without and with the
// timing instrumentation (their rate ratio is the tracing overhead).
const (
	stagedShare = 0.4
	armShare    = 0.3
)

// span is one timed call: name, start and end (ns since the tracer's
// epoch), the span that caused it (0 = root) and the request or quantum
// it belongs to.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record stores a finished span and returns its ID.
func (t *tracer) record(name string, parent int, req int64, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Start: start.Sub(t.epoch).Nanoseconds(),
		End: end.Sub(t.epoch).Nanoseconds(), Parent: parent, Req: req})
	return id
}

// reserve allocates a span ID whose times are filled in by finish, so
// a parent can be named by children recorded before it ends.
func (t *tracer) reserve(name string, parent int, req int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Req: req})
	return id
}

func (t *tracer) finish(id int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Start = start.Sub(t.epoch).Nanoseconds()
	t.spans[id-1].End = end.Sub(t.epoch).Nanoseconds()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// quantumTrace is the staged pipeline's record of one quantum.
type quantumTrace struct {
	tokenize, intern, akg, shadow, detect, snapshot time.Duration

	tokens      int
	stats       akg.QuantumStats
	shadowOps   int
	cycleChecks int64
	reports     int
	lifecycle   int
	live        int
	nodes       int
	edges       int
}

// stagedPipeline replays the detector's per-quantum work one layer at
// a time through each layer's public API, next to a real detector fed
// the same messages.
type stagedPipeline struct {
	tr *tracer

	tk       textproc.Tokenizer
	interner *textproc.Interner
	graph    *akg.AKG
	shadow   *core.Engine
	det      *detect.Detector

	// Edges and nodes of the staged AKG after the previous quantum:
	// the shadow engine is driven by the difference.
	prevEdges map[dygraph.Edge]float64
	prevNodes map[dygraph.NodeID]bool

	// Scratch reused across quanta.
	byUser map[uint64]int
	users  []stagedUser
	arena  []byte
	kws    []dygraph.NodeID
	uks    []ckg.UserKeywords
	// observed[k] marks keyword IDs seen in the current quantum.
	observed []bool
}

type stagedUser struct {
	user uint64
	refs [][2]int // arena offsets of the user's distinct keywords
}

func newStagedPipeline(tr *tracer) *stagedPipeline {
	cfg := detectConfig()
	return &stagedPipeline{
		tr:        tr,
		interner:  textproc.NewInterner(),
		graph:     akg.New(cfg.AKG, core.Hooks{}),
		shadow:    core.NewEngine(core.Hooks{}),
		det:       detect.New(cfg),
		prevEdges: make(map[dygraph.Edge]float64),
		prevNodes: make(map[dygraph.NodeID]bool),
		byUser:    make(map[uint64]int),
	}
}

// prepare tokenizes a quantum and groups each user's distinct
// keywords, users ascending and keywords in byte order: the order in
// which the detector interns them. This is the detector's prepare
// step, timed as textproc.tokenize. It returns the token count.
func (s *stagedPipeline) prepare(batch []stream.Message) int {
	s.arena = s.arena[:0]
	s.users = s.users[:0]
	clear(s.byUser)
	tokens := 0
	for _, m := range batch {
		toks := s.tk.Tokenize(m.Text)
		tokens += len(toks)
		if len(toks) == 0 {
			continue
		}
		ui, ok := s.byUser[m.User]
		if !ok {
			ui = len(s.users)
			s.users = append(s.users, stagedUser{user: m.User})
			s.byUser[m.User] = ui
		}
		u := &s.users[ui]
	next:
		for _, t := range toks {
			for _, r := range u.refs {
				if bytes.Equal(s.arena[r[0]:r[1]], t.Text) {
					continue next
				}
			}
			off := len(s.arena)
			s.arena = append(s.arena, t.Text...)
			u.refs = append(u.refs, [2]int{off, len(s.arena)})
		}
	}
	slices.SortFunc(s.users, func(a, b stagedUser) int {
		switch {
		case a.user < b.user:
			return -1
		case a.user > b.user:
			return 1
		}
		return 0
	})
	for i := range s.users {
		slices.SortFunc(s.users[i].refs, func(a, b [2]int) int {
			return bytes.Compare(s.arena[a[0]:a[1]], s.arena[b[0]:b[1]])
		})
	}
	return tokens
}

// internAll interns the prepared keywords into per-user ID lists.
func (s *stagedPipeline) internAll() []ckg.UserKeywords {
	total := 0
	for i := range s.users {
		total += len(s.users[i].refs)
	}
	if cap(s.kws) < total {
		s.kws = make([]dygraph.NodeID, 0, total)
	}
	s.kws = s.kws[:0]
	s.uks = s.uks[:0]
	for i := range s.users {
		start := len(s.kws)
		for _, r := range s.users[i].refs {
			s.kws = append(s.kws, s.interner.InternBytes(s.arena[r[0]:r[1]]))
		}
		ids := s.kws[start:len(s.kws):len(s.kws)]
		dygraph.SortNodes(ids)
		s.uks = append(s.uks, ckg.UserKeywords{User: s.users[i].user, Keywords: ids})
	}
	return s.uks
}

// graphDelta is one quantum's change to the AKG graph, in the order
// the shadow engine applies it.
type graphDelta struct {
	goneEdges, newEdges, reweighted []dygraph.Edge
	goneNodes, newNodes             []dygraph.NodeID
	weights                         map[dygraph.Edge]float64
}

// diff computes the staged AKG's graph change since the last call.
// Surviving edges with an endpoint observed this quantum count as
// reweighted whether or not the weight moved: the AKG refreshes every
// such edge through the engine.
func (s *stagedPipeline) diff(uks []ckg.UserKeywords) graphDelta {
	g := s.graph.Engine().Graph()
	if n := s.interner.Size() + 1; len(s.observed) < n {
		s.observed = make([]bool, 2*n)
	} else {
		clear(s.observed)
	}
	for _, uk := range uks {
		for _, k := range uk.Keywords {
			s.observed[k] = true
		}
	}
	d := graphDelta{weights: make(map[dygraph.Edge]float64, len(s.prevEdges))}
	g.ForEachEdge(func(e dygraph.Edge, w float64) { d.weights[e] = w })
	nodes := make(map[dygraph.NodeID]bool, len(s.prevNodes))
	g.ForEachNode(func(n dygraph.NodeID) { nodes[n] = true })
	// Map order does not matter here: every list is sorted below.
	for e := range s.prevEdges {
		if _, ok := d.weights[e]; !ok {
			d.goneEdges = append(d.goneEdges, e)
		}
	}
	for e := range d.weights {
		if _, ok := s.prevEdges[e]; !ok {
			d.newEdges = append(d.newEdges, e)
		} else if s.observed[e.U] || s.observed[e.V] {
			d.reweighted = append(d.reweighted, e)
		}
	}
	for n := range s.prevNodes {
		if !nodes[n] {
			d.goneNodes = append(d.goneNodes, n)
		}
	}
	for n := range nodes {
		if !s.prevNodes[n] {
			d.newNodes = append(d.newNodes, n)
		}
	}
	// Sorted, so the shadow engine does the same work on every run.
	dygraph.SortEdges(d.goneEdges)
	dygraph.SortEdges(d.newEdges)
	dygraph.SortEdges(d.reweighted)
	dygraph.SortNodes(d.goneNodes)
	dygraph.SortNodes(d.newNodes)
	s.prevEdges, s.prevNodes = d.weights, nodes
	return d
}

// applyShadow applies a delta to the shadow engine: removals first,
// then additions and weight refreshes. The canonical SCP clustering
// does not depend on the order.
func (s *stagedPipeline) applyShadow(d graphDelta) {
	en := s.shadow
	for _, e := range d.goneEdges {
		en.RemoveEdge(e.U, e.V)
	}
	for _, n := range d.goneNodes {
		en.RemoveNode(n)
	}
	for _, n := range d.newNodes {
		en.AddNode(n)
	}
	for _, e := range d.newEdges {
		en.AddEdge(e.U, e.V, d.weights[e])
	}
	for _, e := range d.reweighted {
		en.SetWeight(e.U, e.V, d.weights[e])
	}
}

// step runs quantum q (1-based) through every stage and returns its
// record; an error is a traced-run validity failure.
func (s *stagedPipeline) step(q int, batch []stream.Message) (quantumTrace, error) {
	var qt quantumTrace
	req := int64(q)
	root := s.tr.reserve("quantum", 0, req)
	t0 := time.Now()
	qt.tokens = s.prepare(batch)
	t1 := time.Now()
	uks := s.internAll()
	t2 := time.Now()
	qt.stats = s.graph.ProcessQuantum(uks)
	t3 := time.Now()
	s.tr.record("textproc.tokenize", root, req, t0, t1)
	s.tr.record("textproc.intern", root, req, t1, t2)
	s.tr.record("akg.process_quantum", root, req, t2, t3)

	delta := s.diff(uks)
	cc0, _, _ := s.shadow.Stats()
	c0 := time.Now()
	s.applyShadow(delta)
	c1 := time.Now()
	s.tr.record("core.shadow", root, req, c0, c1)
	qt.shadowOps = len(delta.goneEdges) + len(delta.goneNodes) + len(delta.newNodes) + len(delta.newEdges) + len(delta.reweighted)
	cc1, _, _ := s.shadow.Stats()
	qt.cycleChecks = cc1 - cc0

	var res *detect.QuantumResult
	var d0, d1 time.Time
	for _, m := range batch {
		t := time.Now()
		out := s.det.IngestAll(m)
		if len(out) > 0 {
			d0, d1 = t, time.Now()
			res = out[len(out)-1]
		}
	}
	if res == nil {
		return qt, fmt.Errorf("quantum %d: the detector closed no quantum", q)
	}
	s0 := time.Now()
	s.det.Snapshot(res)
	s1 := time.Now()
	s.tr.record("detect.ingest_all", root, req, d0, d1)
	s.tr.record("detect.snapshot", root, req, s0, s1)
	s.tr.finish(root, t0, s1)

	qt.tokenize, qt.intern, qt.akg, qt.shadow = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2), c1.Sub(c0)
	qt.detect, qt.snapshot = d1.Sub(d0), s1.Sub(s0)
	qt.reports = len(res.Reports)
	qt.lifecycle = len(res.Born) + len(res.Ended) + len(res.Merged)
	qt.live = s.det.LiveCount()
	qt.nodes, qt.edges = res.AKGNodes, res.AKGEdges

	if res.Stats != qt.stats {
		return qt, fmt.Errorf("quantum %d: staged AKG stats %+v differ from the detector's %+v", q, qt.stats, res.Stats)
	}
	if !core.SameClustering(s.shadow.Snapshot(), s.det.AKG().Engine().Snapshot()) {
		return qt, fmt.Errorf("quantum %d: the shadow engine's clusters differ from the detector's", q)
	}
	return qt, nil
}

// runStaged drives the plan's quanta through the staged pipeline until
// the budget is spent, and reports the per-layer figures of the quanta
// after warm-up.
func runStaged(p *plan, tr *tracer, budget time.Duration, res *result) {
	s := newStagedPipeline(tr)
	var qts []quantumTrace
	var deadline time.Time
	for i, batch := range p.batches {
		if i == p.w.warmQuanta {
			deadline = time.Now().Add(budget)
		} else if i > p.w.warmQuanta && time.Now().After(deadline) {
			break
		}
		qt, err := s.step(i+1, batch)
		if err != nil {
			res.problem("traced run: %v", err)
			return
		}
		if i >= p.w.warmQuanta {
			qts = append(qts, qt)
		}
	}
	res.fact("staged_quanta", len(qts))
	col := func(f func(*quantumTrace) float64) []float64 {
		out := make([]float64, len(qts))
		for i := range qts {
			out[i] = f(&qts[i])
		}
		return out
	}
	tok := col(func(q *quantumTrace) float64 { return us(q.tokenize) })
	in := col(func(q *quantumTrace) float64 { return us(q.intern) })
	ak := col(func(q *quantumTrace) float64 { return us(q.akg) })
	sh := col(func(q *quantumTrace) float64 { return us(q.shadow) })
	det := col(func(q *quantumTrace) float64 { return us(q.detect) })
	st := func(f func(*akg.QuantumStats) int) []float64 {
		return col(func(q *quantumTrace) float64 { return float64(f(&q.stats)) })
	}
	screened := sum(st(func(s *akg.QuantumStats) int { return s.PairsScreened }))
	passed := sum(st(func(s *akg.QuantumStats) int { return s.PairsPassed }))
	addedE := sum(st(func(s *akg.QuantumStats) int { return s.EdgesAdded }))

	res.set("textproc.tokenize_us_per_quantum", mean(tok))
	res.set("textproc.intern_us_per_quantum", mean(in))
	res.set("textproc.tokens_per_msg", sum(col(func(q *quantumTrace) float64 { return float64(q.tokens) }))/float64(len(qts)*delta))

	res.set("akg.process_quantum_us_p50", quantile(ak, 0.5))
	res.set("akg.process_quantum_us_p99", quantile(ak, 0.99))
	res.set("akg.self_us_per_quantum", mean(ak)-mean(sh))
	res.set("akg.pairs_screened", screened/float64(len(qts)))
	res.set("akg.pairs_passed", passed/float64(len(qts)))
	res.set("akg.screen_pass_ratio", ratio(passed, screened))
	res.set("akg.edge_yield", ratio(addedE, passed))
	res.set("akg.edges_removed", mean(st(func(s *akg.QuantumStats) int { return s.EdgesRemoved })))
	res.set("akg.edges_updated", mean(st(func(s *akg.QuantumStats) int { return s.EdgesUpdated })))
	res.set("akg.dirty_nodes", mean(st(func(s *akg.QuantumStats) int { return s.DirtyNodes })))
	res.set("akg.nodes", mean(col(func(q *quantumTrace) float64 { return float64(q.nodes) })))
	res.set("akg.edges", mean(col(func(q *quantumTrace) float64 { return float64(q.edges) })))

	_, merges, splits := s.shadow.Stats()
	res.set("core.shadow_us_per_quantum", mean(sh))
	res.set("core.ops_per_quantum", mean(col(func(q *quantumTrace) float64 { return float64(q.shadowOps) })))
	res.set("core.cycle_checks_per_quantum", mean(col(func(q *quantumTrace) float64 { return float64(q.cycleChecks) })))
	res.set("core.merges", float64(merges))
	res.set("core.splits", float64(splits))
	res.set("core.clusters", float64(s.shadow.ClusterCount()))

	// Reconcile is what the detector's quantum costs beyond the staged
	// children it contains (tokenize, intern, AKG with its engine).
	recon := make([]float64, len(qts))
	for i := range recon {
		recon[i] = det[i] - tok[i] - in[i] - ak[i]
	}
	res.set("detect.quantum_us_p50", quantile(det, 0.5))
	res.set("detect.quantum_us_p99", quantile(det, 0.99))
	res.set("detect.reconcile_us_per_quantum", mean(recon))
	res.set("detect.snapshot_us_p50", quantile(col(func(q *quantumTrace) float64 { return us(q.snapshot) }), 0.5))
	res.set("detect.reports_per_quantum", mean(col(func(q *quantumTrace) float64 { return float64(q.reports) })))
	res.set("detect.lifecycle_deltas_per_quantum", mean(col(func(q *quantumTrace) float64 { return float64(q.lifecycle) })))
	res.set("detect.live_events", mean(col(func(q *quantumTrace) float64 { return float64(q.live) })))
}

// runTraced is the traced run: the staged pipeline, then the
// in-process server untraced and traced, each on the plan's inputs.
func runTraced(o options, p *plan, runDir string, res *result) error {
	tr := newTracer()
	dur := time.Duration(o.seconds * float64(time.Second))
	runStaged(p, tr, time.Duration(stagedShare*float64(dur)), res)
	armDur := time.Duration(armShare * float64(dur))
	runtime.GC()
	plain, err := runArm(p, filepath.Join(runDir, "plain"), armDur, nil)
	if err != nil {
		return fmt.Errorf("untraced arm: %w", err)
	}
	runtime.GC()
	traced, err := runArm(p, filepath.Join(runDir, "traced"), armDur, tr)
	if err != nil {
		return fmt.Errorf("traced arm: %w", err)
	}
	for _, a := range []*armResult{plain, traced} {
		res.attempted += len(a.lr.ingests) + len(a.lr.reads) + len(a.probe.reads)
		res.failed += a.lr.failures + a.probe.failures
		for _, e := range []string{a.lr.firstErr, a.probe.firstErr} {
			if e != "" {
				res.problems = append(res.problems, e)
			}
		}
	}
	res.attempted++ // the staged pipeline's validity checks
	serverLayers(traced, res)
	loadgenMetrics(p, plain, res)
	res.set("trace.overhead_frac", 1-ratio(traced.rate, plain.rate))
	res.fact("untraced_arm_msgs_per_s", plain.rate)
	res.fact("traced_arm_msgs_per_s", traced.rate)
	path := filepath.Join(filepath.Dir(runDir), fmt.Sprintf("trace-%s-%d.jsonl", p.w.name, p.seed))
	res.fact("spans", path)
	return tr.write(path)
}

// serverLayers derives the wal, archive, query and server metrics of
// the traced arm.
func serverLayers(a *armResult, res *result) {
	batches := 0
	for _, r := range a.lr.ingests {
		if r.ok {
			batches++
		}
	}
	msgs := float64(batches * delta)
	wal := a.io[catWAL]
	syncs := make([]float64, len(wal.syncs))
	for i, d := range wal.syncs {
		syncs[i] = us(d)
	}
	res.set("wal.fsyncs", float64(len(wal.syncs)))
	res.set("wal.batches_per_fsync", ratio(float64(batches), float64(len(wal.syncs))))
	res.set("wal.fsync_us_p50", quantile(syncs, 0.5))
	res.set("wal.fsync_us_p99", quantile(syncs, 0.99))
	res.set("wal.bytes_per_msg", ratio(float64(wal.bytes), msgs))
	res.set("wal.writes_per_batch", ratio(float64(wal.writes), float64(batches)))
	// Snapshots are rare (one per SnapshotEvery quanta), so they are
	// counted over the whole arm, warm-up included.
	snap := a.ioAll[catSnapshot]
	var snapTime time.Duration
	for _, d := range snap.syncs {
		snapTime += d
	}
	snapTime += snap.writeTime
	res.set("wal.snapshot_us", ratio(us(snapTime), float64(snap.creates)))
	res.set("wal.snapshot_bytes", ratio(float64(snap.bytes), float64(snap.creates)))
	res.fact("wal_snapshots", snap.creates)

	arch := a.io[catArchive]
	res.set("archive.records_appended", float64(a.archived))
	res.set("archive.bytes_written", float64(arch.bytes))
	res.set("archive.write_us_total", us(arch.writeTime))
	res.set("archive.fsyncs", float64(len(arch.syncs)))

	mw := a.mw
	mw.mu.Lock()
	defer mw.mu.Unlock()
	res.set("query.run_us_p50", quantile(mw.queryRun, 0.5))
	res.set("query.run_us_p99", quantile(mw.queryRun, 0.99))
	var scanned, skipped, blocks, records float64
	for _, s := range mw.qstats {
		scanned += float64(s.SegmentsScanned)
		skipped += float64(s.Segments - s.SegmentsScanned)
		blocks += float64(s.BlocksScanned)
		records += float64(s.RecordsScanned)
	}
	n := float64(len(mw.qstats))
	res.set("query.segments_scanned", ratio(scanned, n))
	res.set("query.segments_skipped", ratio(skipped, n))
	res.set("query.blocks_scanned", ratio(blocks, n))
	res.set("query.records_scanned", ratio(records, n))

	res.set("server.read_us_p50", quantile(mw.direct, 0.5))
	res.set("server.read_us_p99", quantile(mw.direct, 0.99))
	res.set("server.query_handler_us_p50", quantile(mw.handler, 0.5))
	res.set("server.query_handler_us_p99", quantile(mw.handler, 0.99))
	res.set("server.encode_share", 1-ratio(float64(mw.directSum), float64(mw.handlerSum)))
	res.set("server.response_bytes_per_query", ratio(float64(mw.respBytes), float64(len(mw.handler))))
	res.set("server.ingest_handler_us_p50", quantile(mw.ingest, 0.5))
	res.set("server.ingest_handler_us_p99", quantile(mw.ingest, 0.99))
	res.set("server.queue_depth_max", float64(mw.queueDepthMax))
	res.set("server.sse_bytes_per_frame", ratio(float64(a.sseBytes), float64(len(a.frames))))
	for _, st := range []string{"queue_wait", "sched_wait", "snapshot_publish", "sse_fanout"} {
		pre, post := a.stagesPre[st], a.stagesPost[st]
		res.set("obs."+st+"_us_mean", ratio((post[0]-pre[0])*1e6, post[1]-pre[1]))
	}
}

// loadgenMetrics reports how the generator itself behaved on the
// untraced arm: how late it ran against its schedule (open loop only;
// a closed loop has no schedule) and the request rates it offered and
// completed.
func loadgenMetrics(p *plan, a *armResult, res *result) {
	var late []float64
	attempted, ok := 0, 0
	for _, r := range a.lr.ingests {
		late = append(late, ms(r.sent.Sub(r.due)))
		attempted++
		if r.ok {
			ok++
		}
	}
	for _, r := range a.lr.reads {
		late = append(late, ms(r.sent.Sub(r.due)))
		attempted++
		if r.ok {
			ok++
		}
	}
	elapsed := a.lr.end.Sub(a.lr.start).Seconds()
	offered := ratio(float64(attempted), elapsed)
	if p.w.openLoop {
		res.set("loadgen.late_p99_ms", quantile(late, 0.99))
		offered = float64(time.Second/p.ingestEvery) + queriesPerSec
	}
	res.set("loadgen.offered_per_s", offered)
	res.set("loadgen.achieved_per_s", ratio(float64(ok), elapsed))
}
