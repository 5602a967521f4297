package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/vfs"
)

// benchReadHeader marks the planned reads, so the timing middleware
// leaves the harness's own requests (history, metrics) out.
const benchReadHeader = "X-Bench-Read"

// ioStats accumulates one storage category's file operations.
type ioStats struct {
	writes    int
	bytes     int64
	writeTime time.Duration
	syncs     []time.Duration
	creates   int // files created by CreateTemp (WAL snapshots)
}

func (s ioStats) minus(o ioStats) ioStats {
	return ioStats{
		writes:    s.writes - o.writes,
		bytes:     s.bytes - o.bytes,
		writeTime: s.writeTime - o.writeTime,
		syncs:     s.syncs[len(o.syncs):],
		creates:   s.creates - o.creates,
	}
}

// Storage categories the timing filesystem tells apart by path.
const (
	catWAL = iota
	catSnapshot
	catArchive
	catOther
	numCats
)

// timingFS is a vfs.FS that times and counts writes and fsyncs per
// storage category, passing every call through to the OS.
type timingFS struct {
	vfs.FS
	walDir, archDir string

	mu    sync.Mutex
	stats [numCats]ioStats
}

func newTimingFS(walDir, archDir string) *timingFS {
	return &timingFS{FS: vfs.OS, walDir: walDir, archDir: archDir}
}

func (f *timingFS) category(name string) int {
	switch {
	case strings.HasPrefix(name, f.walDir):
		if strings.HasPrefix(filepath.Base(name), "snap") {
			return catSnapshot
		}
		return catWAL
	case strings.HasPrefix(name, f.archDir):
		return catArchive
	}
	return catOther
}

// snapshot returns a copy of the counters.
func (f *timingFS) snapshot() [numCats]ioStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.stats
	for i := range out {
		out[i].syncs = append([]time.Duration(nil), f.stats[i].syncs...)
	}
	return out
}

func (f *timingFS) wrap(file vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, fs: f, cat: f.category(file.Name())}, nil
}

func (f *timingFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	return f.wrap(f.FS.OpenFile(name, flag, perm))
}

func (f *timingFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	file, err := f.wrap(f.FS.CreateTemp(dir, pattern))
	if err == nil {
		cat := file.(*timingFile).cat
		f.mu.Lock()
		f.stats[cat].creates++
		f.mu.Unlock()
	}
	return file, err
}

func (f *timingFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	t0 := time.Now()
	err := f.FS.WriteFile(name, data, perm)
	f.wrote(f.category(name), len(data), time.Since(t0))
	return err
}

func (f *timingFS) wrote(cat, n int, d time.Duration) {
	f.mu.Lock()
	f.stats[cat].writes++
	f.stats[cat].bytes += int64(n)
	f.stats[cat].writeTime += d
	f.mu.Unlock()
}

// timingFile times the writes and fsyncs of one open file.
type timingFile struct {
	vfs.File
	fs  *timingFS
	cat int
}

func (t *timingFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.File.Write(p)
	t.fs.wrote(t.cat, n, time.Since(t0))
	return n, err
}

func (t *timingFile) Sync() error {
	t0 := time.Now()
	err := t.File.Sync()
	d := time.Since(t0)
	t.fs.mu.Lock()
	t.fs.stats[t.cat].syncs = append(t.fs.stats[t.cat].syncs, d)
	t.fs.mu.Unlock()
	return err
}

// countingWriter counts the bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += n
	return n, err
}

// timing is the traced arm's HTTP middleware: it times every ingest
// and planned read through the real handler, and re-runs each planned
// read directly against the tenant (no encoding) to split handler time
// into read and encode.
type timing struct {
	next http.Handler
	pool *server.Pool
	tr   *tracer

	mu            sync.Mutex
	reqs          int64
	ingest        []float64 // handler µs
	handler       []float64 // planned read handler µs
	direct        []float64 // direct tenant call µs, reads other than /query
	queryRun      []float64 // direct Tenant.Query µs
	handlerSum    time.Duration
	directSum     time.Duration
	respBytes     int64
	queueDepthMax int
	qstats        []query.Stats
}

func (m *timing) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	isIngest := r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/messages")
	isRead := r.Header.Get(benchReadHeader) != ""
	if !isIngest && !isRead {
		m.next.ServeHTTP(w, r)
		return
	}
	m.mu.Lock()
	m.reqs++
	req := m.reqs
	m.mu.Unlock()
	name := "http.read"
	if isIngest {
		name = "http.ingest"
	}
	cw := &countingWriter{ResponseWriter: w}
	root := m.tr.reserve(name, 0, req)
	t0 := time.Now()
	m.next.ServeHTTP(cw, r)
	t1 := time.Now()
	m.tr.finish(root, t0, t1)
	if isIngest {
		depth := 0
		if t, ok := m.pool.Tenant(tenant); ok {
			depth = t.Stats().QueueDepth
		}
		m.mu.Lock()
		m.ingest = append(m.ingest, us(t1.Sub(t0)))
		m.queueDepthMax = max(m.queueDepthMax, depth)
		m.mu.Unlock()
		return
	}
	t, ok := m.pool.Tenant(tenant)
	if !ok {
		return
	}
	d0 := time.Now()
	isQuery, qs, err := directRead(t, r.URL)
	d1 := time.Now()
	if err != nil {
		return
	}
	m.tr.record("tenant.read", root, req, d0, d1)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handler = append(m.handler, us(t1.Sub(t0)))
	m.handlerSum += t1.Sub(t0)
	m.directSum += d1.Sub(d0)
	m.respBytes += int64(cw.n)
	if isQuery {
		m.queryRun = append(m.queryRun, us(d1.Sub(d0)))
		m.qstats = append(m.qstats, qs)
	} else {
		m.direct = append(m.direct, us(d1.Sub(d0)))
	}
}

// directRead serves a planned read's URL straight from the tenant's
// methods, without HTTP or JSON.
func directRead(t *server.Tenant, u *url.URL) (isQuery bool, st query.Stats, err error) {
	v := u.Query()
	path := strings.TrimPrefix(u.Path, "/v1/"+tenant)
	switch {
	case path == "/events" && v.Get("keyword") != "":
		k, _ := strconv.Atoi(v.Get("k"))
		t.EventsKeyword(k, v.Get("keyword"))
	case path == "/events":
		k, _ := strconv.Atoi(v.Get("k"))
		t.Events(k, false)
	case strings.HasPrefix(path, "/events/"):
		id, perr := strconv.ParseUint(strings.TrimPrefix(path, "/events/"), 10, 64)
		if perr != nil {
			return false, st, perr
		}
		t.Event(id)
	case path == "/related":
		min, perr := strconv.ParseFloat(v.Get("min"), 64)
		if perr != nil {
			return false, st, perr
		}
		t.Related(min)
	case path == "/query":
		from, _ := strconv.Atoi(v.Get("from"))
		to, _ := strconv.Atoi(v.Get("to"))
		limit, _ := strconv.Atoi(v.Get("limit"))
		res, qerr := t.Query(query.Request{From: from, To: to, Keywords: v["keyword"], Limit: limit})
		return true, res.Stats, qerr
	default:
		return false, st, fmt.Errorf("unplanned read %s", u)
	}
	return false, st, nil
}

// armResult is what one in-process server arm measured.
type armResult struct {
	lr, probe  loadResult
	frames     []sseFrame
	sseBytes   int64
	rate       float64 // ingest msgs/s, as the end-to-end run defines it
	io         [numCats]ioStats
	ioAll      [numCats]ioStats
	archived   int
	stagesPre  map[string][2]float64
	stagesPost map[string][2]float64
	mw         *timing // the traced arm's middleware
}

// runArm serves the shared configuration in-process over loopback and
// drives the workload against it for dur. With tr set it is the traced
// arm: a timing filesystem under the pool and timing middleware around
// the handler.
func runArm(p *plan, dir string, dur time.Duration, tr *tracer) (*armResult, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cfg := server.PoolConfig{
		Detector:               detectConfig(),
		RetainEvents:           retain,
		WALDir:                 filepath.Join(dir, "wal"),
		WALGroupCommitInterval: groupCommit,
		ArchiveDir:             filepath.Join(dir, "archive"),
	}
	var tfs *timingFS
	if tr != nil {
		tfs = newTimingFS(cfg.WALDir, cfg.ArchiveDir)
		cfg.FS = tfs
	}
	srv, err := server.New(server.Config{Addr: addr, Pool: cfg, ShutdownGrace: 20 * time.Second})
	if err != nil {
		return nil, err
	}
	ar := &armResult{}
	if tr != nil {
		ar.mw = &timing{next: srv.HTTP.Handler, pool: srv.Pool, tr: tr}
		srv.HTTP.Handler = ar.mw
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	c := newClient("http://" + addr)
	if tr != nil {
		c.readHeader = true
	}
	shutdown := func() error {
		c.close()
		serr := srv.Shutdown(context.Background())
		if lerr := <-errc; serr == nil {
			serr = lerr
		}
		return serr
	}
	sse, err := bringUp(c, p)
	if err != nil {
		shutdown() //nolint:errcheck // the bring-up error is the one to report
		return nil, err
	}
	var pre [numCats]ioStats
	archived := func() int {
		if t, ok := srv.Pool.Tenant(tenant); ok {
			return t.Metrics().ArchiveEvents
		}
		return 0
	}
	arch0 := archived()
	if tfs != nil {
		pre = tfs.snapshot()
		if ar.stagesPre, err = stageSums(c); err != nil {
			sse.close()
			shutdown() //nolint:errcheck // the metrics error is the one to report
			return nil, err
		}
	}
	var steal *stealLog
	ar.lr, ar.probe, ar.frames, _, steal = measure(c, sse, p, dur)
	_, ar.sseBytes = sse.snapshot()
	sse.close()
	ar.archived = archived() - arch0
	if tfs != nil {
		all := tfs.snapshot()
		ar.ioAll = all
		for i := range all {
			ar.io[i] = all[i].minus(pre[i])
		}
		if ar.stagesPost, err = stageSums(c); err != nil {
			shutdown() //nolint:errcheck // the metrics error is the one to report
			return nil, err
		}
	}
	_, _, arrivals := ingestSamples(&ar.lr, ar.frames)
	ar.rate = ingestRate(arrivals, ar.lr.start, phaseEnd(&ar.lr, dur), steal.asRate)
	if err := shutdown(); err != nil {
		return nil, fmt.Errorf("in-process server shutdown: %w", err)
	}
	return ar, nil
}

// stageSums reads the per-stage latency sums (seconds) and counts from
// the Prometheus exposition of /metrics.
func stageSums(c *client) (map[string][2]float64, error) {
	status, body, err := c.do(http.MethodGet, "/metrics?format=prometheus", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	const name = "eventdetect_stage_duration_seconds"
	out := make(map[string][2]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		var idx int
		switch {
		case strings.HasPrefix(line, name+"_sum{"):
			idx = 0
		case strings.HasPrefix(line, name+"_count{"):
			idx = 1
		default:
			continue
		}
		_, rest, ok := strings.Cut(line, `stage="`)
		if !ok {
			continue
		}
		stage, rest, ok := strings.Cut(rest, `"`)
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		e := out[stage]
		e[idx] = v
		out[stage] = e
	}
	return out, sc.Err()
}
