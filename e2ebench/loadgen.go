package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/query"
	"repro/internal/server"
)

// client is the load generator's view of one server: a single
// keep-alive connection for requests and a second one for the SSE
// stream.
type client struct {
	base string
	req  *http.Client
	sse  *http.Client
	// readHeader marks planned reads with benchReadHeader, for the
	// traced arm's middleware.
	readHeader bool
}

func newClient(base string) *client {
	tr := func() *http.Transport {
		return &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		}
	}
	return &client{
		base: base,
		req:  &http.Client{Transport: tr(), Timeout: 60 * time.Second},
		sse:  &http.Client{Transport: tr()},
	}
}

func (c *client) close() {
	c.req.CloseIdleConnections()
	c.sse.CloseIdleConnections()
}

// do sends one request and reads the whole response.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	return c.send(method, path, body, false)
}

func (c *client) send(method, path string, body []byte, planned bool) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if planned && c.readHeader {
		req.Header.Set(benchReadHeader, "1")
	}
	resp, err := c.req.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// getJSON fetches path and decodes a 200 response into v.
func (c *client) getJSON(path string, v any) error {
	status, body, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %.200s", path, status, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// waitReady polls /readyz until it answers 200.
func (c *client) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		status, _, err := c.do(http.MethodGet, "/readyz", nil)
		if err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after %v (status %d, err %v)", timeout, status, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// sseFrame is one received quantum notification.
type sseFrame struct {
	quantum int
	at      time.Time
	data    []byte
}

// sseStream reads a tenant's SSE stream on its own goroutine.
type sseStream struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	cond   *sync.Cond
	frames []sseFrame
	bytes  int64
	err    error
}

// openSSE subscribes to the tenant's stream and returns once the
// server has sent the stream's opening comment.
func (c *client) openSSE() (*sseStream, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/"+tenant+"/stream", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := c.sse.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("open SSE: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("open SSE: status %d", resp.StatusCode)
	}
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	if _, err := br.ReadSlice('\n'); err != nil {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("open SSE: %w", err)
	}
	s := &sseStream{cancel: cancel, done: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	go s.read(resp.Body, br)
	return s, nil
}

var (
	dataPrefix    = []byte("data: ")
	quantumPrefix = []byte(`"quantum":`)
)

func (s *sseStream) read(body io.Closer, br *bufio.Reader) {
	defer close(s.done)
	defer body.Close()
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			s.mu.Lock()
			if s.err == nil {
				s.err = err
			}
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		now := time.Now()
		if !bytes.HasPrefix(line, dataPrefix) {
			s.mu.Lock()
			s.bytes += int64(len(line))
			s.mu.Unlock()
			continue
		}
		data := bytes.TrimSuffix(line[len(dataPrefix):], []byte("\n"))
		q := -1
		if i := bytes.Index(data, quantumPrefix); i >= 0 {
			rest := data[i+len(quantumPrefix):]
			j := 0
			for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
				j++
			}
			q, _ = strconv.Atoi(string(rest[:j]))
		}
		s.mu.Lock()
		s.bytes += int64(len(line))
		s.frames = append(s.frames, sseFrame{quantum: q, at: now, data: data})
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// seen returns how many frames have arrived.
func (s *sseStream) seen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.frames)
}

// waitFrames blocks until at least n frames arrived, the stream ended,
// or the deadline passed; it reports whether n frames arrived.
func (s *sseStream) waitFrames(n int, deadline time.Time) bool {
	stop := time.AfterFunc(time.Until(deadline), func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.frames) < n && s.err == nil && time.Now().Before(deadline) {
		s.cond.Wait()
	}
	return len(s.frames) >= n
}

// snapshot returns the frames received so far and the stream's byte
// count.
func (s *sseStream) snapshot() ([]sseFrame, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]sseFrame(nil), s.frames...), s.bytes
}

// close ends the subscription and waits for the reader to exit.
func (s *sseStream) close() {
	s.cancel()
	<-s.done
}

// ingestRec is one timed POST of a quantum.
type ingestRec struct {
	quantum int // 1-based quantum the batch completes
	due     time.Time
	sent    time.Time
	// from is when the request's latency is counted from: its due time
	// if it waited for the connection behind a request of its own
	// stream, else when it was sent (see openLoop).
	from  time.Time
	acked time.Time
	ok    bool
}

// readRec is one timed GET.
type readRec struct {
	q    plannedQuery
	due  time.Time
	sent time.Time
	from time.Time // as in ingestRec
	done time.Time
	ok   bool
	body []byte
}

// loadResult is what one ingest phase measured.
type loadResult struct {
	ingests []ingestRec
	reads   []readRec
	start   time.Time // first measured request was due
	end     time.Time // last request completed
	// failures is the count of non-2xx responses and transport errors.
	failures int
	firstErr string
}

func (r *loadResult) fail(format string, args ...any) {
	r.failures++
	if r.firstErr == "" {
		r.firstErr = fmt.Sprintf(format, args...)
	}
}

// postQuantum sends plan quantum i (0-based) and records it.
func (c *client) postQuantum(p *plan, i int, due time.Time, res *loadResult) bool {
	now := time.Now()
	rec := ingestRec{quantum: i + 1, due: due, sent: now, from: now}
	status, body, err := c.do(http.MethodPost, "/v1/"+tenant+"/messages", p.bodies[i])
	rec.acked = time.Now()
	switch {
	case err != nil:
		res.fail("POST quantum %d: %v", i+1, err)
	case status != http.StatusAccepted:
		res.fail("POST quantum %d: status %d: %.200s", i+1, status, body)
	default:
		rec.ok = true
	}
	res.ingests = append(res.ingests, rec)
	return rec.ok
}

// closedLoop posts plan quanta [from, to) one at a time, keeping at
// most unseenWindow sent quanta without their SSE frame, until to is
// reached or the deadline passes. A failed POST ends the phase: the
// stream after it would no longer be the planned one.
func (c *client) closedLoop(p *plan, s *sseStream, from, to int, deadline time.Time, res *loadResult) {
	res.start = time.Now()
	for i := from; i < to && time.Now().Before(deadline); i++ {
		if !s.waitFrames(i-unseenWindow, time.Now().Add(30*time.Second)) {
			res.fail("SSE stalled before quantum %d", i+1)
			break
		}
		if !c.postQuantum(p, i, time.Now(), res) {
			break
		}
	}
	res.end = time.Now()
}

// openLoop sends quanta from `from` on at the plan's ingest period and
// the plan's reads at their due times, all on the one request
// connection, for the given duration. Each request is sent when due, or
// as soon as the previous one completes when the generator runs late.
func (c *client) openLoop(p *plan, from int, dur time.Duration, res *loadResult) {
	start := time.Now()
	res.start = start
	nq := int(dur / p.ingestEvery)
	if from+nq > len(p.bodies) {
		nq = len(p.bodies) - from
	}
	const never = time.Duration(math.MaxInt64)
	qi, ri := 0, 0
	ingestOK := true
	// free is when the connection last became free, and lastRead
	// whether a read held it. A request that found it busy at its due
	// time with a request of its own stream (ingest or reads) is timed
	// from its due time, which charges it the wait for the server.
	// Every other request is timed from when it was sent: the
	// generator's own oversleep (up to about a millisecond on a virtual
	// machine's timers; reported as loadgen.late_p99_ms) is not the
	// server's, and neither is a wait behind the other stream, which
	// only exists because both streams share one connection.
	free, lastRead := start, false
	for {
		ingestDue, readDue := never, never
		if qi < nq && ingestOK {
			ingestDue = time.Duration(qi) * p.ingestEvery
		}
		if ri < len(p.queries) && p.queries[ri].due < dur {
			readDue = p.queries[ri].due
		}
		next := min(ingestDue, readDue)
		if next == never {
			break
		}
		due := start.Add(next)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if ingestDue <= readDue {
			ingestOK = c.postQuantum(p, from+qi, due, res)
			qi++
			r := &res.ingests[len(res.ingests)-1]
			if free.After(due) && !lastRead {
				r.from = due
			}
			free, lastRead = r.acked, false
			continue
		}
		c.read(p.queries[ri], due, res)
		ri++
		r := &res.reads[len(res.reads)-1]
		if free.After(due) && lastRead {
			r.from = due
		}
		free, lastRead = r.done, true
	}
	res.end = time.Now()
}

// read sends one planned GET.
func (c *client) read(q plannedQuery, due time.Time, res *loadResult) {
	now := time.Now()
	rec := readRec{q: q, due: due, sent: now, from: now}
	status, body, err := c.send(http.MethodGet, q.path, nil, true)
	rec.done = time.Now()
	switch {
	case err != nil:
		res.fail("GET %s: %v", q.path, err)
	case status != http.StatusOK:
		res.fail("GET %s: status %d: %.200s", q.path, status, body)
	default:
		rec.ok = true
		rec.body = body
	}
	res.reads = append(res.reads, rec)
}

// probe issues the plan's reads one at a time, pausing probePause
// after each, so the probe samples the server over a few seconds
// rather than in one burst a single hiccup of the machine can spoil.
func (c *client) probe(p *plan, res *loadResult) {
	for _, q := range p.queries {
		c.read(q, time.Now(), res)
		time.Sleep(probePause)
	}
}

// flush waits until every accepted batch is fully applied (retention
// trims included): the flush marker queues behind them.
func (c *client) flush() error {
	status, body, err := c.do(http.MethodPost, "/v1/"+tenant+"/flush", nil)
	if err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("flush: status %d: %.200s", status, body)
	}
	return nil
}

// fetchHistory reads the server's full event history: every retained
// event (/events?all=1) and the unified live+archive history (/query,
// followed page by page).
func (c *client) fetchHistory() ([]query.Event, []server.EventView, error) {
	var retained struct {
		Events []server.EventView `json:"events"`
	}
	if err := c.getJSON("/v1/"+tenant+"/events?all=1", &retained); err != nil {
		return nil, nil, err
	}
	var full []query.Event
	cursor := ""
	for page := 0; ; page++ {
		if page > 1000 {
			return nil, nil, errors.New("history pagination did not end")
		}
		path := "/v1/" + tenant + "/query?from=0&limit=10000"
		if cursor != "" {
			path += "&cursor=" + url.QueryEscape(cursor)
		}
		var res query.Result
		if err := c.getJSON(path, &res); err != nil {
			return nil, nil, err
		}
		full = append(full, res.Events...)
		if res.Cursor == "" || len(res.Events) == 0 {
			break
		}
		cursor = res.Cursor
	}
	return full, retained.Events, nil
}
