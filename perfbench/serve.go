package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ajaxcrawl"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/router"
	"ajaxcrawl/internal/serve"
	"ajaxcrawl/internal/webapp"
)

const (
	// routedRate is serve-routed's open-loop rate: about a tenth of
	// the two-connection closed-loop saturation (~190 req/s) of the
	// two-core host the benchmark was sized on. Near half of saturation,
	// queueing behind garbage collection and costly head queries made
	// the latencies of repeated runs differ by half. The rate is
	// fixed, not measured, so that runs on different commits offer the
	// same load.
	routedRate = 20.0
	// directRate is serve-direct's open-loop rate, about a ninth of
	// its closed-loop saturation (~2700 req/s), chosen the same way.
	directRate = 300.0
	// setupReps is how many times an untraced serve run sets up;
	// setup_s is the median.
	setupReps = 3
	// conns is the closed-loop phase's connection count.
	conns = 2
	// routedSat and directSat are the closed-loop rates, in requests
	// per second, that size each closed-loop phase's fixed number of
	// requests to last about its share of --seconds on the two-core
	// host the benchmark was sized on.
	routedSat = 190
	directSat = 2700
	// openShare is the part of the measured time the open loop runs;
	// the closed loop runs the rest.
	openShare = 0.65
	// rounds is how many open-plus-closed rounds an untraced run's
	// measured time is cut into; each phase of a traced run, half as
	// long, has half as many, so rounds last as long in both. The
	// host's speed dips for a few seconds at a time; with the closed
	// loop spread over many short segments, a dip slows a few of them,
	// and the median segment does not see it.
	rounds = 12
	// latencyWindow is the fewest open-loop samples a round needs for
	// its own p95 with ten samples beyond it. When each round has as
	// many, p50_ms and tail_ms are medians over rounds, so that a
	// round slowed by the host does not move them; otherwise they are
	// taken over the samples of all rounds.
	latencyWindow = 200
	// topK is the result count every request asks for.
	topK = 10
	// diffSample is how many distinct routed answers are compared with
	// the single-snapshot reference after the run.
	diffSample = 100
)

// warmRequests are sent through a fresh fleet, closed-loop, before it
// is measured: connections open and lazily built state is built. The
// result cache need not fill, since every round of serve-direct
// reloads and so empties it.
func warmRequests(routed bool) int {
	if routed {
		return 100
	}
	return 200
}

// published is one set-up's crawl and the snapshots made from it.
type published struct {
	dir    string
	eng    *ajaxcrawl.Engine
	full   string         // the whole corpus, as BuildEngine sharded it
	shards []string       // routed: the corpus split round-robin in two
	graphs []*model.Graph // routed: every crawled page, in site order
	ref    string         // routed: the corpus as one index, the reference
	pool   []string
}

// publish generates the site, crawls it as crawl-yt does, and writes
// the snapshots the fleet serves.
func publish(ctx context.Context, r *run, routed bool, dir string) (*published, error) {
	site := newSite(siteSeed(r.seed, 0), false)
	c, err := crawl(ctx, site, ajaxcrawl.NewHandlerFetcher(site.Handler()), false, dir)
	if err != nil {
		return nil, err
	}
	if m := c.m; m.PagesFailed > 0 {
		return nil, fmt.Errorf("set-up crawl: %d pages failed", m.PagesFailed)
	}
	// The set-up crawl is crawl-yt's crawl of site 0, so crawl-yt's
	// checks hold for it: per-page state counts and the recorded digest.
	checkCrawl(r, site, c, false)
	if want := r.recordedDigest("crawl-yt", 0); want != "" && c.digest != want {
		r.fail(int64(c.m.Pages), "set-up crawl digest %s, spec.json records %s for crawl-yt site 0 of seed %d", c.digest, want, r.seed)
	}
	p := &published{dir: dir, eng: c.eng, full: filepath.Join(dir, "snap"), pool: queryPool(site, r.seed)}
	if !routed {
		return p, nil
	}
	for i := 0; i < site.NumVideos(); i++ {
		if g := c.eng.Graph(webapp.WatchURL(site.VideoID(i))); g != nil {
			p.graphs = append(p.graphs, g)
		}
	}
	parts := make([][]*model.Graph, 2)
	for i, g := range p.graphs {
		parts[i%2] = append(parts[i%2], g)
	}
	for i, part := range parts {
		d, err := p.save(part, "shard-"+strconv.Itoa(i))
		if err != nil {
			return nil, fmt.Errorf("shard snapshot: %w", err)
		}
		p.shards = append(p.shards, d)
	}
	return p, nil
}

// save writes the pages gs as one snapshot under p's directory.
func (p *published) save(gs []*model.Graph, name string) (string, error) {
	d := filepath.Join(p.dir, name)
	_, err := ajaxcrawl.NewEngineFromGraphs(nil, gs, p.eng.PageRank).SaveSnapshot(d)
	return d, err
}

// serveConfig is an ajaxserve daemon's configuration at its command-line
// defaults, except that admission control is off (MaxInflight 0, the
// library default). At the daemon default of 64 with no wait queue, the
// adaptive limit decays to its floor of 1 under this query mix, whose
// cheapest answers set a latency baseline the costly ones always
// exceed, and two closed-loop connections are then mostly shed with
// 429. The router is configured the same way.
func serveConfig(dir string) serve.Config {
	return serve.Config{
		SnapshotDir:   dir,
		CacheCapacity: 1024,
		CacheShards:   8,
		QueryTimeout:  2 * time.Second,
	}
}

// fleet is the running servers of one serve workload plus the client
// that loads them and the checks on their answers.
type fleet struct {
	routed  bool
	base    string // where the load goes: the router or the ajaxserve
	refBase string // routed: the single-snapshot reference ajaxserve
	direct  *serve.Server
	tel     *obs.Telemetry
	reg     *obs.Registry
	client  *http.Client
	closers []func()

	countResults bool
	results      atomic.Int64

	mu       sync.Mutex
	bodies   map[string][32]byte // answer hash per query (and generation, on serve-direct)
	hitsSeen int
	failures map[string]int // failed requests by reason
	sent     int64
}

// startHTTP serves h on a loopback port until the returned stop
// function is called; stop waits for the server goroutine to exit.
func startHTTP(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return "http://" + ln.Addr().String(), func() { srv.Close(); <-done }, nil
}

func newTransport() *http.Transport {
	return &http.Transport{Proxy: nil, MaxIdleConnsPerHost: 256, DisableCompression: true}
}

// startFleet starts the servers over p's snapshots. Traced, it installs
// a span sink and the timing wrappers; untraced, the servers carry only
// a metrics registry, as the daemons do.
func startFleet(p *published, routed bool, sink obs.Sink) (*fleet, error) {
	reg := obs.NewRegistry()
	tel := obs.New(reg, sink)
	traced := sink != nil
	f := &fleet{
		routed:   routed,
		tel:      tel,
		reg:      reg,
		client:   &http.Client{Transport: newTransport()},
		bodies:   map[string][32]byte{},
		failures: map[string]int{},
	}
	f.closers = append(f.closers, f.client.CloseIdleConnections)
	wrap := func(name string, h http.Handler) http.Handler {
		if traced {
			return tracedHandler(tel, name, h)
		}
		return h
	}
	listen := func(h http.Handler) (string, error) {
		base, stop, err := startHTTP(h)
		if err == nil {
			f.closers = append(f.closers, stop)
		}
		return base, err
	}
	if !routed {
		s, err := serve.New(serveConfig(p.full), tel)
		if err != nil {
			return nil, err
		}
		f.direct = s
		f.base, err = listen(wrap(spanServeHTTP, s.Handler()))
		return f, err
	}

	var rt http.RoundTripper = newTransport()
	if traced {
		rt = &tracedTransport{inner: rt}
	}
	shardClient := &http.Client{Transport: rt}
	f.closers = append(f.closers, shardClient.CloseIdleConnections)
	var topo [][]router.Backend
	for i, dir := range p.shards {
		s, err := serve.New(serveConfig(dir), tel)
		if err != nil {
			f.Close()
			return nil, err
		}
		base, err := listen(wrap(spanServeHTTP, s.Handler()))
		if err != nil {
			f.Close()
			return nil, err
		}
		var b router.Backend = &router.HTTPBackend{BaseURL: base, Client: shardClient}
		if traced {
			b = tracedBackend{inner: b, shard: strconv.Itoa(i)}
		}
		topo = append(topo, []router.Backend{b})
	}
	rtr, err := router.New(router.Config{Shards: topo, ShardTimeout: 1500 * time.Millisecond, Partial: true})
	if err != nil {
		f.Close()
		return nil, err
	}
	rs := router.NewServer(rtr, router.ServerConfig{QueryTimeout: 2 * time.Second}, tel)
	if f.base, err = listen(wrap(spanRouterHTTP, rs.Handler())); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// startReference starts the single-snapshot ajaxserve that routed
// answers are compared with. It is the benchmark's check, not part of
// the fleet, so set-up time does not include it.
func (f *fleet) startReference(p *published) error {
	if p.ref == "" {
		dir, err := p.save(p.graphs, "ref")
		if err != nil {
			return fmt.Errorf("reference snapshot: %w", err)
		}
		p.ref = dir
	}
	ref, err := serve.New(serveConfig(p.ref), nil)
	if err != nil {
		return err
	}
	base, stop, err := startHTTP(ref.Handler())
	if err != nil {
		return err
	}
	f.refBase = base
	f.closers = append(f.closers, stop)
	return nil
}

// Close stops every server and client connection of the fleet.
func (f *fleet) Close() {
	for i := len(f.closers) - 1; i >= 0; i-- {
		f.closers[i]()
	}
}

func (f *fleet) get(base, q string) (*http.Response, []byte, error) {
	resp, err := f.client.Get(base + "/search?q=" + url.QueryEscape(q) + "&k=" + strconv.Itoa(topK))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

// request sends one query and checks the answer: a transport error, a
// non-200 status, a partial or degraded answer, and a body that differs
// from an earlier answer to the same query (on serve-direct: the same
// query and snapshot generation) all count as failed.
func (f *fleet) request(q string) {
	resp, body, err := f.get(f.base, q)
	why := ""
	key := q
	switch {
	case err != nil:
		why = "transport error"
	case resp.StatusCode != http.StatusOK:
		why = "status " + strconv.Itoa(resp.StatusCode)
	case resp.Header.Get(serve.HeaderDegraded) != "":
		why = "degraded answer"
	case f.routed && resp.Header.Get(router.HeaderShards) != "2/2":
		why = "partial answer " + resp.Header.Get(router.HeaderShards)
	}
	if why == "" && !f.routed {
		key = q + "\x00" + resp.Header.Get(serve.HeaderGeneration)
	}
	if why == "" && f.countResults {
		var v struct{ Count int }
		if json.Unmarshal(body, &v) == nil {
			f.results.Add(int64(v.Count))
		}
	}
	sum := sha256.Sum256(body)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sent++
	if why == "" {
		if prev, ok := f.bodies[key]; !ok {
			f.bodies[key] = sum
		} else if prev != sum {
			why = "answer differs from an earlier answer to the same query"
		} else if resp.Header.Get(serve.HeaderCache) == "hit" {
			f.hitsSeen++
		}
	}
	if why != "" {
		f.failures[why]++
	}
}

// takeCounts returns and resets the fleet's request count and its
// failures by reason.
func (f *fleet) takeCounts() (sent int64, failures map[string]int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	sent, failures = f.sent, f.failures
	f.sent, f.failures = 0, map[string]int{}
	return sent, failures
}

// charge adds the fleet's counts since the last call to the run.
func (f *fleet) charge(r *run) {
	sent, failures := f.takeCounts()
	r.attempted += sent
	for why, n := range failures {
		r.fail(int64(n), "%d requests: %s", n, why)
	}
}

// checkReference compares a seeded sample of the distinct routed
// answers with the single-snapshot reference: the sharded fleet must
// answer byte for byte as one ajaxserve over the whole corpus does.
func (f *fleet) checkReference(r *run) error {
	f.mu.Lock()
	qs := make([]string, 0, len(f.bodies))
	for q := range f.bodies {
		qs = append(qs, q)
	}
	f.mu.Unlock()
	sort.Strings(qs)
	rand.New(rand.NewSource(r.seed)).Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	if len(qs) > diffSample {
		qs = qs[:diffSample]
	}
	for _, q := range qs {
		resp, body, err := f.get(f.refBase, q)
		if err != nil {
			return fmt.Errorf("reference server: %w", err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("reference server: q=%q: status %d", q, resp.StatusCode)
		}
		f.mu.Lock()
		got := f.bodies[q]
		f.mu.Unlock()
		if got != sha256.Sum256(body) {
			r.fail(1, "q=%q: routed answer differs from the single-snapshot answer", q)
		}
	}
	r.note("differential: %d routed answers compared byte for byte with the single-snapshot reference", len(qs))
	return nil
}

// republish saves serve-direct's snapshot again and hot-swaps it in.
func (f *fleet) republish(ctx context.Context, p *published) error {
	sctx, sp := obs.StartSpan(ctx, spanSave)
	_, err := p.eng.SaveSnapshot(p.full)
	sp.End(err)
	if err != nil {
		return err
	}
	_, sp = obs.StartSpan(sctx, spanReload)
	swapped, err := f.direct.Reload(ctx, false)
	sp.End(err)
	if err == nil && !swapped {
		err = errors.New("republished snapshot was not swapped in")
	}
	return err
}

// rate is the fleet's open-loop request rate.
func (f *fleet) rate() float64 {
	if f.routed {
		return routedRate
	}
	return directRate
}

// sat is the fleet's nominal closed-loop rate.
func (f *fleet) sat() float64 {
	if f.routed {
		return routedSat
	}
	return directSat
}

// closedSegment is one round's closed-loop measurement.
type closedSegment struct {
	start     time.Time
	n         int
	wall, cpu time.Duration
}

// phaseResult is what one measurement saw.
type phaseResult struct {
	latency, late []time.Duration
	openN         int // open-loop requests a round
	closed        []closedSegment
	reloads       int
}

// closedN is the number of closed-loop requests of all rounds.
func (res *phaseResult) closedN() int {
	n := 0
	for _, c := range res.closed {
		n += c.n
	}
	return n
}

// qps is the median over rounds of closed-loop requests per second.
func (res *phaseResult) qps() float64 {
	xs := make([]float64, len(res.closed))
	for i, c := range res.closed {
		xs[i] = float64(c.n) / c.wall.Seconds()
	}
	return median(xs)
}

// cpuPerOp is the median over rounds of process CPU per closed-loop
// request, in ms.
func (res *phaseResult) cpuPerOp() float64 {
	xs := make([]float64, len(res.closed))
	for i, c := range res.closed {
		xs[i] = ms(c.cpu) / float64(c.n)
	}
	return median(xs)
}

// measure runs n rounds in dur: each an open-loop segment, then a
// closed-loop segment of a fixed number of requests. The open-loop
// latencies are kept in order, openN a round. On serve-direct every
// open-loop segment republishes and hot-swaps the snapshot once,
// half-way through: the swap's stall shows in the latencies, and each
// closed segment starts from the same state, a cache refilled for half
// a segment.
func (f *fleet) measure(ctx context.Context, p *published, dur time.Duration, n int, tag uint64) (*phaseResult, error) {
	openDur := time.Duration(float64(dur) * openShare / float64(n))
	openN := int(f.rate() * openDur.Seconds())
	closedN := int((dur.Seconds() - openDur.Seconds()*float64(n)) / float64(n) * f.sat())
	open := newQueryStream(p.pool, tag).Rounds(n, openN)
	closed := newQueryStream(p.pool, tag+1).Rounds(n, closedN)
	res := &phaseResult{openN: openN}
	for k := 0; k < n; k++ {
		var reloaded chan error
		if !f.routed {
			reloaded = make(chan error, 1)
			go func() {
				time.Sleep(openDur / 2)
				reloaded <- f.republish(ctx, p)
			}()
		}
		lat, late := openLoop(f.rate(), openDur, func(i int) { f.request(open[k][i]) })
		res.latency = append(res.latency, lat...)
		res.late = append(res.late, late...)
		if reloaded != nil {
			if err := <-reloaded; err != nil {
				return nil, fmt.Errorf("republish: %w", err)
			}
			res.reloads++
		}
		runtime.GC()
		cpu0 := processCPU()
		seg := closedSegment{start: time.Now(), n: closedN}
		seg.wall = closedLoop(conns, closedN, func(i int) { f.request(closed[k][i]) })
		seg.cpu = processCPU() - cpu0
		res.closed = append(res.closed, seg)
	}
	return res, nil
}

func (f *fleet) warmUp(p *published) {
	warm := newQueryStream(p.pool, 0)
	for i := 0; i < warmRequests(f.routed); i++ {
		f.request(warm.At(i))
	}
}

// setUp publishes and starts an untraced fleet, warmed up. Untraced
// runs set up setupReps times and keep the last; setup_s is the median.
func setUpServe(ctx context.Context, r *run, routed bool) (*published, *fleet, error) {
	reps := setupReps
	if r.trace {
		reps = 1
	}
	var times []float64
	var p *published
	var f *fleet
	for i := 0; i < reps; i++ {
		if f != nil {
			f.Close()
			if err := os.RemoveAll(p.dir); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if p, err = publish(ctx, r, routed, filepath.Join(r.work, "setup-"+strconv.Itoa(i))); err != nil {
			return nil, nil, err
		}
		if f, err = startFleet(p, routed, nil); err != nil {
			return nil, nil, err
		}
		f.warmUp(p)
		times = append(times, time.Since(t0).Seconds())
		if sent, failures := f.takeCounts(); len(failures) > 0 {
			f.Close()
			return nil, nil, fmt.Errorf("warm-up: of %d requests, failed: %v", sent, failures)
		}
	}
	r.set("setup_s", median(times))
	return p, f, nil
}

func runServe(ctx context.Context, r *run, routed bool) error {
	p, f, err := setUpServe(ctx, r, routed)
	if err != nil {
		return err
	}
	if routed {
		if err := f.startReference(p); err != nil {
			f.Close()
			return err
		}
	}
	measure, n := r.seconds, rounds
	if r.trace {
		measure, n = r.seconds/2, rounds/2
	}
	heap := startHeapPeak()
	res, err := f.measure(ctx, p, measure, n, 1)
	peak := heap.Stop()
	if err != nil {
		f.Close()
		return err
	}
	f.charge(r)
	if routed {
		err = f.checkReference(r)
	}
	f.Close()
	if err != nil {
		return err
	}
	r.set("mem.peak_heap_mb", peak)
	r.set("throughput_per_s", res.qps())
	r.set("cpu_ms_per_op", res.cpuPerOp())
	latMS := make([]float64, len(res.latency))
	for i, d := range res.latency {
		latMS[i] = ms(d)
	}
	if res.openN >= latencyWindow {
		var windows [][]float64
		for k := 0; k < len(latMS); k += res.openN {
			windows = append(windows, latMS[k:k+res.openN])
		}
		setTimingPerWindow(r, "open-loop request", "rounds", windows)
	} else {
		setTiming(r, "open-loop request", latMS)
	}
	r.note("%d rounds: open loop %.0f req/s for %s in all; closed loop %d connections: %d requests, median segment %.1f req/s; %d snapshot reloads; %d cache-hit answers checked",
		n, f.rate(), time.Duration(float64(measure)*openShare),
		conns, res.closedN(), res.qps(), res.reloads, f.hitsSeen)
	var segs []string
	for _, c := range res.closed {
		segs = append(segs, fmt.Sprintf("%.0f/s %.3fms", float64(c.n)/c.wall.Seconds(), ms(c.cpu)/float64(c.n)))
	}
	r.note("closed-loop segments (req/s, CPU per request): %s", strings.Join(segs, ", "))
	if !r.trace {
		return nil
	}
	return traceServe(ctx, r, p, routed, res, measure, n)
}

// traceServe measures a traced fleet over the same snapshots for the
// second half of the run and sets the per-layer metrics.
func traceServe(ctx context.Context, r *run, p *published, routed bool, untraced *phaseResult, measure time.Duration, n int) error {
	lateMS := make([]float64, len(untraced.late))
	for i, d := range untraced.late {
		lateMS[i] = ms(d)
	}
	r.set("loadgen.late_p99_ms", percentile(sortedCopy(lateMS), 99))

	coll := &collector{}
	f, err := startFleet(p, routed, coll)
	if err != nil {
		return err
	}
	defer f.Close()
	if routed {
		if err := f.startReference(p); err != nil {
			return err
		}
	}
	f.warmUp(p)
	f.charge(r)
	f.countResults = true
	coll.Take()
	ctx = obs.With(ctx, f.tel)
	before := f.reg.Snapshot()

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	rt0 := readRuntime()
	t0 := time.Now()
	res, err := f.measure(ctx, p, measure, n, 3)
	elapsed := time.Since(t0)
	rt := readRuntime().sub(rt0)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	after := f.reg.Snapshot()
	f.charge(r)
	if routed {
		if err := f.checkReference(r); err != nil {
			return err
		}
	}
	requests := float64(len(res.latency) + res.closedN())

	spans := place(coll.Take(), t0)
	acc := newLayerAcc()
	for _, c := range res.closed {
		from := c.start.Sub(t0)
		acc.addWall(spans, from, from+c.wall)
	}
	acc.finishWall(r, float64(res.closedN()), "request")

	children := map[uint64][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	var handler, shardEval, exec, backend, routerHTTP, fanout, encode, merge, saves, reloads []float64
	var candidates, wireBytes, wires float64
	for _, s := range spans {
		d := ms(s.Dur())
		switch s.Name {
		case spanServeHTTP:
			handler = append(handler, d)
			encode = append(encode, ms(selfTime(s, children[s.ID])))
		case obs.SpanShardEval:
			shardEval = append(shardEval, d)
		case obs.SpanQueryExec:
			exec = append(exec, d)
		case spanBackend:
			backend = append(backend, d)
			n, _ := strconv.Atoi(s.Attrs[candidatesAttr])
			candidates += float64(n)
		case spanWire:
			n, _ := strconv.Atoi(s.Attrs[bytesAttr])
			wireBytes += float64(n)
			wires++
		case spanRouterHTTP:
			routerHTTP = append(routerHTTP, d)
		case obs.SpanRouterFanout:
			fanout = append(fanout, d)
			slowest := 0.0
			for _, c := range children[s.ID] {
				if c.Name == obs.SpanRouterShard {
					slowest = max(slowest, ms(c.Dur()))
				}
			}
			merge = append(merge, d-slowest)
		case spanSave:
			saves = append(saves, d)
		case spanReload:
			reloads = append(reloads, d)
		}
	}
	sh, se, be := sortedCopy(handler), sortedCopy(shardEval), sortedCopy(backend)
	r.set("serve.handler_ms.p50", percentile(sh, 50))
	r.set("serve.handler_ms.p99", percentile(sh, 99))
	r.set("serve.encode_ms", mean(encode))
	r.set("query.shard_eval_ms.p50", percentile(se, 50))
	r.set("query.shard_eval_ms.p99", percentile(se, 99))
	r.set("query.exec_ms", percentile(sortedCopy(exec), 50))
	r.set("query.candidates_per_call", ratio(candidates, float64(len(backend))))
	r.set("query.useful_ratio", ratio(float64(f.results.Load()), candidates))
	r.set("router.shard_call_ms.p50", percentile(be, 50))
	r.set("router.shard_call_ms.p99", percentile(be, 99))
	r.set("router.http_ms", percentile(sortedCopy(routerHTTP), 50))
	r.set("router.fanout_ms", percentile(sortedCopy(fanout), 50))
	r.set("router.merge_self_ms", mean(merge))
	r.set("router.shard_bytes", ratio(wireBytes, wires))
	r.set("index.save_ms", mean(saves))
	r.set("index.reload_ms", mean(reloads))

	delta := func(name string) float64 {
		return float64(after.Counters[name] - before.Counters[name])
	}
	r.set("query.cache.hit_ratio", ratio(delta("query.cache.hits"), delta("query.cache.hits")+delta("query.cache.misses")))
	r.set("query.cache.evictions", delta("query.cache.evictions"))
	r.set("gc.cycles_per_s", float64(rt.gcCycles)/elapsed.Seconds())
	r.set("alloc_kb_per_op", float64(rt.allocBytes)/1024/requests)
	r.set("trace.overhead_share", untraced.qps()/res.qps()-1)
	return setCPUShares(r, prof.Bytes())
}
