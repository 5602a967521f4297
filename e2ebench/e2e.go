package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/query"
	"repro/internal/server"
)

// liveServer is a set-up server: process, client and SSE subscription.
type liveServer struct {
	proc *serverProc
	c    *client
	sse  *sseStream
}

func (s *liveServer) close(graceful bool) {
	if s.sse != nil {
		s.sse.close()
	}
	if s.c != nil {
		s.c.close()
	}
	if graceful {
		s.proc.stop(20 * time.Second)
	} else {
		s.proc.kill()
	}
}

// setUp starts a server over dir and brings it to the measured state.
func setUp(bin, dir string, p *plan) (*liveServer, error) {
	proc, err := startServer(bin, dir)
	if err != nil {
		return nil, err
	}
	s := &liveServer{proc: proc, c: newClient(proc.base)}
	if s.sse, err = bringUp(s.c, p); err != nil {
		s.close(false)
		return nil, err
	}
	return s, nil
}

// bringUp takes a freshly started server to the measured state: ready,
// tenant created, SSE subscribed, warm-up quanta applied and their
// frames received.
func bringUp(c *client, p *plan) (*sseStream, error) {
	if err := c.waitReady(30 * time.Second); err != nil {
		return nil, err
	}
	// An empty batch creates the tenant without ingesting anything, so
	// the stream can be subscribed before the first quantum.
	status, body, err := c.do(http.MethodPost, "/v1/"+tenant+"/messages", []byte("[]"))
	if err != nil || status != http.StatusAccepted {
		return nil, fmt.Errorf("create tenant: status %d, err %v: %.200s", status, err, body)
	}
	sse, err := c.openSSE()
	if err != nil {
		return nil, err
	}
	var warm loadResult
	c.closedLoop(p, sse, 0, p.w.warmQuanta, time.Now().Add(time.Hour), &warm)
	if warm.failures > 0 {
		sse.close()
		return nil, fmt.Errorf("warm-up: %s", warm.firstErr)
	}
	if !sse.waitFrames(p.w.warmQuanta, time.Now().Add(60*time.Second)) {
		sse.close()
		return nil, fmt.Errorf("warm-up: %d of %d frames arrived", sse.seen(), p.w.warmQuanta)
	}
	return sse, nil
}

// measure runs the workload's measured phase on a set-up server,
// drains the SSE stream and, on the ingest workloads, issues the read
// probe. It returns the ingest phase, the probe, the frames received,
// the number of quanta the server accepted in all, and the machine's
// steal time over all of it.
func measure(c *client, sse *sseStream, p *plan, dur time.Duration) (lr, probe loadResult, frames []sseFrame, accepted int, steal *stealLog) {
	w := p.w
	steal = startStealLog()
	defer steal.stop()
	if w.openLoop {
		c.openLoop(p, w.warmQuanta, dur, &lr)
	} else {
		c.closedLoop(p, sse, w.warmQuanta, len(p.bodies), time.Now().Add(dur), &lr)
	}
	accepted = w.warmQuanta
	for _, r := range lr.ingests {
		if !r.ok {
			break
		}
		accepted++
	}
	sse.waitFrames(accepted, time.Now().Add(30*time.Second))
	frames, _ = sse.snapshot()
	if !w.openLoop {
		c.probe(p, &probe)
	}
	return lr, probe, frames, accepted, steal
}

// measureWindow is the slice length a measured phase is cut into:
// each end-to-end figure is computed per window, scaled by the steal
// time of that window (see stealLog), and the median over the windows
// reported, so a burst of interference from the shared machine moves
// one window rather than the run's figure.
const measureWindow = 2 * time.Second

// probeChunk is the read probe's equivalent of a window, in reads.
const probeChunk = 100

// sample is one measurement taken at a point of the measured phase.
type sample struct {
	at time.Time
	v  float64
}

// windows groups the samples of [start, end) by whole measureWindow
// slice; a phase shorter than one window is one slice of its own
// length. It returns the groups and the slice length.
func windows(samples []sample, start, end time.Time) ([][]float64, time.Duration) {
	width := measureWindow
	n := int(end.Sub(start) / width)
	if n == 0 {
		n, width = 1, end.Sub(start)
	}
	groups := make([][]float64, n)
	for _, s := range samples {
		if s.at.Before(start) || !s.at.Before(start.Add(time.Duration(n)*width)) {
			continue
		}
		i := int(s.at.Sub(start) / width)
		groups[i] = append(groups[i], s.v)
	}
	return groups, width
}

// scaleFunc adjusts a figure measured over [a, b); asMeasured leaves
// it alone.
type scaleFunc func(v float64, a, b time.Time) float64

func asMeasured(v float64, _, _ time.Time) float64 { return v }

// windowed applies f to every non-empty window of the phase, scales
// each result over its window, and returns the median of the results.
func windowed(samples []sample, start, end time.Time, f func([]float64) float64, scale scaleFunc) float64 {
	groups, width := windows(samples, start, end)
	var per []float64
	for i, g := range groups {
		if len(g) > 0 {
			a := start.Add(time.Duration(i) * width)
			per = append(per, scale(f(g), a, a.Add(width)))
		}
	}
	return median(per)
}

// chunked applies f to consecutive chunks of size samples (the last,
// partial chunk dropped unless it is the only one), scales each result
// over the span from its first sample to its last, and returns the
// median of the results.
func chunked(samples []sample, size int, f func([]float64) float64, scale scaleFunc) float64 {
	var per []float64
	apply := func(c []sample) {
		vals := make([]float64, len(c))
		for i, s := range c {
			vals[i] = s.v
		}
		per = append(per, scale(f(vals), c[0].at, c[len(c)-1].at))
	}
	for i := 0; i+size <= len(samples); i += size {
		apply(samples[i : i+size])
	}
	if len(per) == 0 && len(samples) > 0 {
		apply(samples)
	}
	return median(per)
}

func p50(xs []float64) float64 { return quantile(xs, 0.5) }
func p99(xs []float64) float64 { return quantile(xs, 0.99) }

// ingestSamples derives the ingest side of a measured phase: ack
// latencies by send time, detection latencies (counted from the
// record's from time) by due time, and the arrival times of the
// measured quanta's SSE frames.
func ingestSamples(lr *loadResult, frames []sseFrame) (acks, detects []sample, arrivals []time.Time) {
	for _, r := range lr.ingests {
		if !r.ok {
			continue
		}
		acks = append(acks, sample{r.sent, ms(r.acked.Sub(r.sent))})
		if r.quantum <= len(frames) && frames[r.quantum-1].quantum == r.quantum {
			f := frames[r.quantum-1]
			detects = append(detects, sample{r.due, ms(f.at.Sub(r.from))})
			arrivals = append(arrivals, f.at)
		}
	}
	return acks, detects, arrivals
}

// ingestRate is msgs/s of quanta whose POST was acked and whose frame
// arrived, per window from the first to the last arrival in it, with
// the median over windows.
func ingestRate(arrivals []time.Time, start, end time.Time, scale scaleFunc) float64 {
	s := make([]sample, len(arrivals))
	for i, at := range arrivals {
		s[i] = sample{at, float64(at.Sub(start))}
	}
	return windowed(s, start, end, func(g []float64) float64 {
		if len(g) < 2 {
			return 0
		}
		return float64((len(g)-1)*delta) / time.Duration(g[len(g)-1]-g[0]).Seconds()
	}, scale)
}

// phaseEnd is where a measured phase's windows stop: its planned
// length, or earlier when the plan ran out.
func phaseEnd(lr *loadResult, dur time.Duration) time.Time {
	if end := lr.start.Add(dur); end.Before(lr.end) {
		return end
	}
	return lr.end
}

// runEndToEnd is the untraced run against the cmd/serve child process.
func runEndToEnd(o options, p *plan, runDir string, res *result) error {
	// Set-up is repeated and its median reported, each scaled by its
	// steal time like the measured figures; every instance but the
	// last is discarded with its data directory.
	var spans [][2]time.Time
	setupSteal := startStealLog()
	srv, err := func() (*liveServer, error) {
		defer setupSteal.stop()
		for i := 0; ; i++ {
			dir := filepath.Join(runDir, fmt.Sprintf("server%d", i))
			t0 := time.Now()
			s, err := setUp(o.serveBin, dir, p)
			if err != nil {
				return nil, fmt.Errorf("set-up %d: %w", i, err)
			}
			spans = append(spans, [2]time.Time{t0, time.Now()})
			if i >= o.setups-1 {
				return s, nil
			}
			s.close(false)
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}()
	if err != nil {
		return err
	}
	defer func() {
		if srv != nil {
			srv.close(true)
		}
	}()
	setups := make([]float64, len(spans))
	for i, sp := range spans {
		setups[i] = setupSteal.asTime(sp[1].Sub(sp[0]).Seconds(), sp[0], sp[1])
	}
	res.set("setup_s", median(setups))
	fmt.Fprintf(o.log, "e2ebench: set-up %.3fs (median of %d); measuring %gs\n", median(setups), len(setups), o.seconds)

	dur := time.Duration(o.seconds * float64(time.Second))
	// Collect the planning garbage now, not inside the measured phase.
	runtime.GC()
	lr, probe, frames, accepted, steal := measure(srv.c, srv.sse, p, dur)
	fmt.Fprintf(o.log, "e2ebench: measured %d quanta and %d reads; checking against the reference\n",
		len(lr.ingests), len(lr.reads)+len(probe.reads))
	if rss, err := srv.proc.peakRSSMB(); err == nil {
		res.set("peak_rss_mb", rss)
	} else {
		res.problem("peak RSS: %v", err)
	}
	var full []query.Event
	var retained []server.EventView
	histErr := srv.c.flush()
	if histErr == nil {
		full, retained, histErr = srv.c.fetchHistory()
	}
	srv.close(true)
	srv = nil

	acks, detects, arrivals := ingestSamples(&lr, frames)
	end := phaseEnd(&lr, dur)
	// Every timing is reported scaled by the steal time of its window,
	// the four headline figures also as measured, and the steal share
	// itself, so the scaling can be checked. The open loop's rate is
	// the offered one whenever the server keeps up, so it is left as
	// measured.
	rateScale := steal.asRate
	if p.w.openLoop {
		rateScale = asMeasured
	}
	res.set("ingest_msgs_per_s", ingestRate(arrivals, lr.start, end, rateScale))
	res.set("ingest_ack_p50_ms", windowed(acks, lr.start, end, p50, steal.asTime))
	res.set("ingest_ack_p99_ms", windowed(acks, lr.start, end, p99, steal.asTime))
	res.set("detect_latency_p50_ms", windowed(detects, lr.start, end, p50, steal.asTime))
	res.set("detect_latency_p99_ms", windowed(detects, lr.start, end, p99, steal.asTime))
	res.set("unscaled_ingest_msgs_per_s", ingestRate(arrivals, lr.start, end, asMeasured))
	res.set("unscaled_ingest_ack_p50_ms", windowed(acks, lr.start, end, p50, asMeasured))
	res.set("unscaled_detect_latency_p50_ms", windowed(detects, lr.start, end, p50, asMeasured))
	res.set("steal_share", windowed(acks, lr.start, end, func([]float64) float64 { return 1 },
		func(_ float64, a, b time.Time) float64 { return steal.share(a, b) }))
	reads := append(lr.reads, probe.reads...)
	var lat []sample
	for _, r := range reads {
		if r.ok {
			lat = append(lat, sample{r.due, ms(r.done.Sub(r.from))})
		}
	}
	if p.w.openLoop {
		res.set("query_latency_p50_ms", windowed(lat, lr.start, end, p50, steal.asTime))
		res.set("query_latency_p99_ms", windowed(lat, lr.start, end, p99, steal.asTime))
		res.set("unscaled_query_latency_p50_ms", windowed(lat, lr.start, end, p50, asMeasured))
	} else {
		res.set("query_latency_p50_ms", chunked(lat, probeChunk, p50, steal.asTime))
		res.set("query_latency_p99_ms", chunked(lat, probeChunk, p99, steal.asTime))
		res.set("unscaled_query_latency_p50_ms", chunked(lat, probeChunk, p50, asMeasured))
	}
	res.fact("measured_quanta", len(lr.ingests))
	res.fact("reads", len(reads))
	res.fact("ack_samples", len(acks))

	// Correctness gate: transport failures, missing frames, the SSE
	// stream, the full event history and every read, against the
	// reference run over exactly the accepted quanta.
	res.attempted = len(lr.ingests) + len(reads) + 1
	res.failed += lr.failures + probe.failures
	for _, e := range []string{lr.firstErr, probe.firstErr} {
		if e != "" {
			res.problems = append(res.problems, e)
		}
	}
	if missing := accepted - len(frames); missing > 0 {
		res.problem("%d accepted quanta had no SSE frame at drain", missing)
	}
	ref := p.ref
	if ref == nil || accepted != len(p.batches) {
		ref = runReference(p.batches, accepted)
	}
	if err := checkFrames(frames, ref); err != nil {
		res.problem("SSE: %v", err)
	}
	if histErr != nil {
		res.problem("history: %v", histErr)
	} else if err := checkHistory(full, retained, ref); err != nil {
		res.problem("history: %v", err)
	}
	born := make(map[uint64]int)
	for _, ev := range ref.history() {
		born[ev.ID] = ev.BornQuantum
	}
	if p.ref != nil && p.ref != ref {
		for _, ev := range p.ref.history() {
			born[ev.ID] = ev.BornQuantum
		}
	}
	for _, r := range reads {
		if !r.ok {
			continue
		}
		if err := checkRead(r.q, r.body, born); err != nil {
			res.problem("read: %v", err)
		}
	}
	res.set("failed_frac", ratio(float64(res.failed), float64(res.attempted)))
	if p.gt != nil && histErr == nil {
		q := quality(p.gt, full, accepted*delta)
		res.set("recall", q.Recall)
		res.set("precision", q.Precision)
		res.set("event_lag_quanta", q.MeanLatency)
		res.fact("real_events_scored", q.RealTotal)
	}
	return nil
}
