package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"ajaxcrawl"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/webapp"
)

const (
	// procLines is the crawl's process-line count: one per core of the
	// two-core host the benchmark was sized on.
	procLines = 2
	// maxStates is the thesis's per-page state limit (10 further
	// comment pages), the crawler's default.
	maxStates = 11
	// crawlSites is how many sites a crawl run generates from its seed
	// and crawls in turn, so that one run's figures do not rest on one
	// site's draw of page sizes.
	crawlSites = 6
	// siteReps is how many times a crawl run generates each site;
	// setup_s is the median of all generations.
	siteReps = 2
	// minCrawls keeps a median over several crawls in every run.
	minCrawls = 3
	// nominalCrawl and nominalNoisyCrawl are about how long one crawl
	// takes on the two-core host the benchmark was sized on. A run
	// makes --seconds / nominal crawls: a fixed amount of work, so that
	// a slow or busy host makes a run longer, not different. Every
	// timing is a median over crawls: the host's speed dips for a few
	// seconds at a time, and the median crawl does not see a dip that
	// slows a few.
	nominalCrawl      = 2500 * time.Millisecond
	nominalNoisyCrawl = 3500 * time.Millisecond
)

func crawlConfig(site *webapp.Site, f fetch.Fetcher, noisy bool, dir string) ajaxcrawl.Config {
	opts := ajaxcrawl.CrawlOptions{UseHotNode: true, MaxStates: maxStates}
	if noisy {
		opts.NearDupThreshold = 0.9
	}
	return ajaxcrawl.Config{
		Fetcher:   f,
		StartURL:  webapp.WatchURL(site.VideoID(0)),
		MaxPages:  videos,
		ProcLines: procLines,
		Crawl:     opts,
		WorkDir:   filepath.Join(dir, "work"),
		KeepURL:   ajaxcrawl.IsWatchURL,
	}
}

// crawlRep is what one crawl of a site (BuildEngine, then
// SaveSnapshot) cost and produced. eng is kept only while a caller
// needs the crawled corpus.
type crawlRep struct {
	eng       *ajaxcrawl.Engine
	m         ajaxcrawl.CrawlMetrics
	wall, cpu time.Duration
	save      time.Duration
	heapMB    float64 // peak live heap during the crawl
	digest    string
}

// perState is each page's crawl time divided by its admitted states,
// in ms: a page's latency normalised by its size, since the sites'
// pages range from one to eleven states.
func (c *crawlRep) perState() []float64 {
	out := make([]float64, 0, len(c.m.PerPage))
	for _, pm := range c.m.PerPage {
		if pm.States > 0 {
			out = append(out, ms(pm.CrawlTime)/float64(pm.States))
		}
	}
	return out
}

// crawl runs the pipeline once under ctx (which may carry telemetry)
// and publishes the snapshot into dir/snap.
func crawl(ctx context.Context, site *webapp.Site, f fetch.Fetcher, noisy bool, dir string) (*crawlRep, error) {
	runtime.GC()
	heap := startHeapPeak()
	defer heap.Stop()
	cpu0, t0 := processCPU(), time.Now()
	eng, err := ajaxcrawl.BuildEngine(ctx, crawlConfig(site, f, noisy, dir))
	if err != nil {
		return nil, fmt.Errorf("crawl: %w", err)
	}
	_, sp := obs.StartSpan(ctx, spanSave)
	s0 := time.Now()
	_, err = eng.SaveSnapshot(filepath.Join(dir, "snap"))
	sp.End(err)
	if err != nil {
		return nil, fmt.Errorf("save snapshot: %w", err)
	}
	now := time.Now()
	return &crawlRep{eng: eng, m: *eng.Metrics, wall: now.Sub(t0), cpu: processCPU() - cpu0, save: now.Sub(s0), heapMB: heap.Stop()}, nil
}

// checkCrawl counts the crawl's pages as attempted and its failed or
// wrong pages as failed, and sets c.digest: a hash over every crawled
// watch URL with the hashes of its states, in video order.
func checkCrawl(r *run, site *webapp.Site, c *crawlRep, noisy bool) {
	m := c.m
	r.attempted += int64(m.Pages + m.PagesFailed)
	if m.PagesFailed > 0 {
		r.fail(int64(m.PagesFailed), "%d pages failed to crawl", m.PagesFailed)
	}
	h := sha256.New()
	graphs := 0
	for i := 0; i < site.NumVideos(); i++ {
		u := webapp.WatchURL(site.VideoID(i))
		g := c.eng.Graph(u)
		if g == nil {
			continue
		}
		graphs++
		h.Write([]byte(u))
		for _, st := range g.States {
			h.Write(st.Hash[:])
		}
		if want := min(len(site.Video(i).Pages), maxStates); !noisy && g.NumStates() != want {
			r.fail(1, "%s: %d states, want %d", u, g.NumStates(), want)
		}
	}
	if graphs != m.Pages {
		r.fail(1, "%d crawled pages but %d watch-page models", m.Pages, graphs)
	}
	c.digest = hex.EncodeToString(h.Sum(nil))[:16]
}

// checkDigest compares the digest of a crawl of site k with the first
// crawl of that site in the run and with the digest spec.json records
// for the workload, seed and site. A mismatch counts every page of the
// crawl as wrong.
func checkDigest(r *run, c *crawlRep, k int, first []string) {
	if first[k] == "" {
		first[k] = c.digest
	} else if c.digest != first[k] {
		r.fail(int64(c.m.Pages), "site %d: crawl digest %s differs from the run's first crawl %s", k, c.digest, first[k])
	}
	if want := r.recordedDigest(r.workload, k); want != "" && c.digest != want {
		r.fail(int64(c.m.Pages), "site %d: crawl digest %s, spec.json records %s for seed %d", k, c.digest, want, r.seed)
	}
}

// crawlSeries crawls the sites in turn, n crawls in all, checking every
// crawl, and calls each (if not nil) on every crawl before its engine
// is dropped.
func crawlSeries(ctx context.Context, r *run, sites []*webapp.Site, noisy bool, n int,
	wrap func(fetch.Fetcher) fetch.Fetcher, digests []string, each func(*crawlRep, time.Time)) ([]*crawlRep, error) {
	var out []*crawlRep
	for i := 0; i < n; i++ {
		k := i % len(sites)
		var f fetch.Fetcher = ajaxcrawl.NewHandlerFetcher(sites[k].Handler())
		if wrap != nil {
			f = wrap(f)
		}
		dir := filepath.Join(r.work, "crawl")
		t0 := time.Now()
		c, err := crawl(ctx, sites[k], f, noisy, dir)
		if err != nil {
			return nil, err
		}
		checkCrawl(r, sites[k], c, noisy)
		checkDigest(r, c, k, digests)
		if each != nil {
			each(c, t0)
		}
		c.eng = nil
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

func runCrawl(ctx context.Context, r *run, noisy bool) error {
	sites := make([]*webapp.Site, crawlSites)
	var setups []float64
	for i := 0; i < siteReps*crawlSites; i++ {
		k := i % crawlSites
		runtime.GC()
		t0 := time.Now()
		sites[k] = newSite(siteSeed(r.seed, k), noisy)
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups))

	nominal := nominalCrawl
	if noisy {
		nominal = nominalNoisyCrawl
	}
	n := max(minCrawls, int((r.seconds+nominal/2)/nominal))
	if r.trace {
		n = max(1, n/2)
	}
	digests := make([]string, crawlSites)
	crawls, err := crawlSeries(ctx, r, sites, noisy, n, nil, digests, nil)
	if err != nil {
		return err
	}

	var pagesPerS, cpuPerState, heapMB []float64
	var perState [][]float64
	var each []string
	for _, c := range crawls {
		heapMB = append(heapMB, c.heapMB)
		pagesPerS = append(pagesPerS, float64(c.m.Pages)/c.wall.Seconds())
		cpuPerState = append(cpuPerState, ms(c.cpu)/float64(c.m.States))
		perState = append(perState, c.perState())
		each = append(each, fmt.Sprintf("%.1f/s %.3fms", pagesPerS[len(pagesPerS)-1], cpuPerState[len(cpuPerState)-1]))
	}
	r.set("throughput_per_s", median(pagesPerS))
	r.set("cpu_ms_per_op", median(cpuPerState))
	r.set("mem.peak_heap_mb", median(heapMB))
	setTimingPerWindow(r, "page crawl per state", "crawls", perState)
	r.note("%d crawls of %d sites; site 0: %d pages, %d states", len(crawls), min(len(crawls), crawlSites), crawls[0].m.Pages, crawls[0].m.States)
	r.note("crawls (pages/s, CPU per state): %s", strings.Join(each, ", "))
	r.note("digests %q", digests)
	if r.trace {
		return traceCrawl(ctx, r, sites, noisy, crawls, n, digests)
	}
	return nil
}

// setTimingPerWindow sets p50_ms and tail_ms to the medians over
// windows (crawls, or rounds of an open loop) of each window's median
// and tail.
func setTimingPerWindow(r *run, what, window string, windows [][]float64) {
	var p50s, tails []float64
	var tailP float64
	n := 0
	for _, xs := range windows {
		t := summarise(xs)
		if !t.TailOK {
			r.problems = append(r.problems, fmt.Sprintf("%d %s samples of a window are too few for a tail percentile", t.N, what))
			return
		}
		p50s = append(p50s, t.P50)
		tails = append(tails, t.Tail)
		tailP = max(tailP, t.TailP)
		n += t.N
	}
	r.set("p50_ms", median(p50s))
	r.set("tail_ms", median(tails))
	r.note("%s latency: %d %s, n=%d; median over %s of p50=%.3fms and of tail=p%g=%.3fms (highest percentile with >=10 of the window's samples beyond)",
		what, len(windows), window, n, window, median(p50s), tailP, median(tails))
}

// setTiming sets p50_ms and tail_ms from latency samples.
func setTiming(r *run, what string, samplesMS []float64) {
	t := summarise(samplesMS)
	r.set("p50_ms", t.P50)
	r.set("tail_ms", t.Tail)
	r.note("%s latency: n=%d p50=%.3fms tail=p%g=%.3fms (highest percentile with >=10 samples beyond)", what, t.N, t.P50, t.TailP, t.Tail)
	if !t.TailOK {
		r.problems = append(r.problems, fmt.Sprintf("%d %s samples are too few for a tail percentile", t.N, what))
	}
}

// traceCrawl makes n traced crawls, as many as the untraced half of the
// run made, and sets the per-layer metrics, averaged per crawl.
func traceCrawl(ctx context.Context, r *run, sites []*webapp.Site, noisy bool, untraced []*crawlRep, n int, digests []string) error {
	coll := &collector{}
	reg := obs.NewRegistry()
	ctx = obs.With(ctx, obs.New(reg, coll))
	wrap := func(f fetch.Fetcher) fetch.Fetcher { return tracedFetcher{inner: f} }

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	rt0 := readRuntime()
	acc := newLayerAcc()
	var pageMS []float64
	start := time.Now()
	coll.Take()
	traced, err := crawlSeries(ctx, r, sites, noisy, n, wrap, digests, func(c *crawlRep, t0 time.Time) {
		spans := place(coll.Take(), t0)
		acc.addWall(spans, 0, c.wall)
		var lineBusy time.Duration
		for _, s := range spans {
			switch s.Name {
			case spanFetch:
				acc.add("fetch.calls", 1)
				n, _ := strconv.Atoi(s.Attrs[bytesAttr])
				acc.add("fetch.bytes", float64(n))
				acc.add("fetch.busy_ms", ms(s.Dur()))
			case obs.SpanPageCrawl:
				pageMS = append(pageMS, ms(s.Dur()))
			case obs.SpanLineCrawl:
				lineBusy += s.Dur()
			case obs.SpanXHRSend:
				acc.add("xhr.sends", 1)
				acc.add("browser.xhr_ms", ms(s.Dur()))
			case obs.SpanHotNodeHit:
				acc.add("hotnode.hits", 1)
			case obs.SpanIndexBuild:
				acc.add("index.build_ms", ms(s.Dur()))
			}
		}
		m := c.m
		acc.add("core.line_busy_share", lineBusy.Seconds()/(procLines*c.wall.Seconds()))
		acc.add("events", float64(m.EventsTriggered))
		acc.add("states", float64(m.States))
		acc.add("lsh.probes", float64(m.NearDupProbes))
		acc.add("lsh.candidates", float64(m.NearDupCandidates))
		acc.add("lsh.merges", float64(m.NearDupMerges))
		acc.add("index.save_ms", ms(c.save))
	})
	elapsed := time.Since(start)
	rt := readRuntime().sub(rt0)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}

	per := float64(len(traced))
	for _, name := range []string{"fetch.calls", "fetch.bytes", "fetch.busy_ms", "browser.xhr_ms",
		"index.build_ms", "index.save_ms", "lsh.probes", "lsh.candidates", "core.line_busy_share"} {
		r.set(name, acc.sums[name]/per)
	}
	r.set("core.events_per_state", ratio(acc.sums["events"], acc.sums["states"]))
	r.set("hotnode.hit_ratio", ratio(acc.sums["hotnode.hits"], acc.sums["xhr.sends"]))
	r.set("lsh.merge_ratio", ratio(acc.sums["lsh.merges"], acc.sums["lsh.candidates"]))
	r.set("frontier.steals", float64(reg.Counter("frontier.steals").Value())/per)
	s := sortedCopy(pageMS)
	r.set("core.page_ms.p50", percentile(s, 50))
	r.set("core.page_ms.p99", percentile(s, 99))
	r.set("gc.cycles_per_s", float64(rt.gcCycles)/elapsed.Seconds())
	r.set("alloc_kb_per_op", float64(rt.allocBytes)/1024/acc.sums["states"])

	wallPerState := func(cs []*crawlRep) float64 {
		var xs []float64
		for _, c := range cs {
			xs = append(xs, c.wall.Seconds()/float64(c.m.States))
		}
		return median(xs)
	}
	r.set("trace.overhead_share", wallPerState(traced)/wallPerState(untraced)-1)
	acc.finishWall(r, per, "crawl")
	return setCPUShares(r, prof.Bytes())
}
