package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"ajaxcrawl/internal/dom"
	"ajaxcrawl/internal/html"
	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/query"
	"ajaxcrawl/internal/webapp"
)

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1200, 99, true},
		{1000, 99, true}, // rank 990: ten beyond
		{999, 98, true},  // p99 would leave nine beyond
		{660, 98, true},
		{200, 95, true}, // p95 leaves exactly ten beyond
		{199, 90, true},
		{20, 50, true},
		{19, 0, false},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && c.n-rank(got, c.n) < 10 {
			t.Errorf("n=%d: p%v has %d samples beyond", c.n, got, c.n-rank(got, c.n))
		}
	}
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	s := summarise(samples)
	if s.N != 1000 || s.TailP != 99 || s.Tail != 990 || s.P50 != 500 {
		t.Fatalf("summarise = %+v; want n=1000 p50=500 p99=990", s)
	}
}

// A server that stalls for 150 ms makes every request due during the
// stall late: latency counts from the due time, not from the send, and
// the generator itself stays on schedule.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const rate, stall = 100.0, 150 * time.Millisecond
	var mu sync.Mutex // the server handles one request at a time
	latency, late := openLoop(rate, 300*time.Millisecond, func(i int) {
		mu.Lock()
		defer mu.Unlock()
		if i == 2 {
			time.Sleep(stall)
		}
	})
	if len(latency) != 30 {
		t.Fatalf("%d requests, want 30", len(latency))
	}
	// Request 2 was due at 20 ms and held the server until ~170 ms.
	// Request 5, due at 50 ms, could not finish before then.
	if latency[5] < 100*time.Millisecond {
		t.Errorf("request 5 latency %v; it waited behind the stall", latency[5])
	}
	if latency[25] > 50*time.Millisecond {
		t.Errorf("request 25, due after the stall, took %v", latency[25])
	}
	for i, l := range late {
		if l > 60*time.Millisecond {
			t.Errorf("generator sent request %d %v late", i, l)
		}
	}
}

func TestClosedLoopSendsEachRequestOnce(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	wall := closedLoop(2, 20, func(i int) {
		time.Sleep(5 * time.Millisecond)
		mu.Lock()
		seen[i]++
		mu.Unlock()
	})
	if len(seen) != 20 {
		t.Fatalf("%d distinct requests sent, want 20", len(seen))
	}
	for i, n := range seen {
		if i < 0 || i >= 20 || n != 1 {
			t.Fatalf("request %d sent %d times", i, n)
		}
	}
	// Two callers share twenty 5 ms requests: about 50 ms.
	if wall < 45*time.Millisecond || wall > 500*time.Millisecond {
		t.Fatalf("closed loop took %v", wall)
	}
}

func ms2d(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func sp(id, parent uint64, name string, from, to float64) span {
	return span{ID: id, Parent: parent, Name: name, Start: ms2d(from), End: ms2d(to)}
}

// A host slowdown that covers a minority of the rounds or crawls does
// not move the medians the serve and crawl timings report.
func TestMediansIgnoreASlowMinority(t *testing.T) {
	res := &phaseResult{}
	for k := 0; k < 5; k++ {
		seg := closedSegment{n: 100, wall: time.Second, cpu: 2 * time.Second}
		if k >= 3 {
			seg.wall, seg.cpu = 2*time.Second, 4*time.Second
		}
		res.closed = append(res.closed, seg)
	}
	if res.closedN() != 500 || res.qps() != 100 || res.cpuPerOp() != 20 {
		t.Fatalf("closedN %d qps %v cpuPerOp %v; want 500, 100, 20", res.closedN(), res.qps(), res.cpuPerOp())
	}

	r := &run{values: map[string]float64{}}
	var crawls [][]float64
	for k := 0; k < 3; k++ {
		xs := make([]float64, 200)
		for i := range xs {
			xs[i] = float64(i + 1)
			if k == 2 {
				xs[i] *= 3
			}
		}
		crawls = append(crawls, xs)
	}
	setTimingPerWindow(r, "page", "crawls", crawls)
	if r.values["p50_ms"] != 100 || r.values["tail_ms"] != 190 || len(r.problems) > 0 {
		t.Fatalf("p50 %v tail %v problems %v; want 100, 190 (p95 of 200), none", r.values["p50_ms"], r.values["tail_ms"], r.problems)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := sp(1, 0, "p", 0, 10)
	kids := []span{sp(2, 1, "a", 1, 4), sp(3, 1, "b", 3, 6), sp(4, 1, "c", 9, 12)}
	// Children cover [1,6) and [9,10): 6 ms of 10.
	if got := selfTime(parent, kids); got != ms2d(4) {
		t.Fatalf("self time %v, want 4ms", got)
	}
}

func TestWallSharesSumToWall(t *testing.T) {
	spans := []span{
		sp(1, 0, "root", 0, 10),
		sp(2, 1, "a", 1, 4),
		sp(3, 1, "b", 3, 6),
		sp(4, 0, "other", 8, 12), // overlaps the root; runs past the frame
		sp(5, 0, "line.crawl", 0, 12),
	}
	layer := func(name string) string {
		if name == "line.crawl" {
			return ""
		}
		return name
	}
	shares, un := wallShares(spans, 0, ms2d(12), layer)
	want := map[string]float64{
		"root":  1 + 2 + 1, // [0,1) [6,8) and half of [8,10)
		"a":     2 + 0.5,   // [1,3) and half of [3,4)
		"b":     0.5 + 2,   // half of [3,4) and [4,6)
		"other": 1 + 2,     // half of [8,10) and [10,12)
	}
	total := un
	for name, w := range want {
		if got := shares[name] / 1e6; got < w-1e-9 || got > w+1e-9 {
			t.Errorf("%s share %.3f ms, want %.3f", name, got, w)
		}
		total += shares[name]
	}
	if un != 0 {
		t.Errorf("unattributed %.3f ms, want 0", un/1e6)
	}
	if total != float64(ms2d(12)) {
		t.Errorf("shares add to %.0f ns, want %d", total, ms2d(12))
	}
	// A gap with no open span is unattributed.
	_, un = wallShares([]span{sp(1, 0, "x", 2, 3)}, 0, ms2d(5), layer)
	if un != float64(ms2d(4)) {
		t.Errorf("unattributed %.0f ns, want 4ms", un)
	}
}

func TestPlaceJoinsAcrossTheHTTPHop(t *testing.T) {
	t0 := time.Now()
	rec := func(id, parent uint64, name, hop string) obs.SpanRecord {
		r := obs.SpanRecord{ID: id, Parent: parent, Name: name, Start: t0, DurNS: int64(time.Millisecond)}
		if hop != "" {
			r.Attrs = map[string]string{hopAttr: hop}
		}
		return r
	}
	shard := func(r obs.SpanRecord, group string) obs.SpanRecord {
		r.Attrs = map[string]string{shardAttr: group}
		return r
	}
	got := place([]obs.SpanRecord{
		rec(1, 0, spanRouterHTTP, ""),
		rec(2, 6, spanWire, "7"),
		rec(3, 0, spanServeHTTP, "7"),
		rec(4, 0, spanServeHTTP, ""),
		rec(5, 1, obs.SpanRouterFanout, ""),
		shard(rec(6, 5, spanBackend, ""), "1"),
		shard(rec(7, 5, obs.SpanRouterShard, ""), "0"),
		shard(rec(8, 5, obs.SpanRouterShard, ""), "1"),
	}, t0)
	if got[2].Parent != 2 {
		t.Errorf("shard handler span parent %d, want the round trip (2)", got[2].Parent)
	}
	if got[3].Parent != 0 {
		t.Errorf("untagged span re-parented to %d", got[3].Parent)
	}
	if got[5].Parent != 8 {
		t.Errorf("shard call parent %d, want the router.shard span of its group (8)", got[5].Parent)
	}
	if got[1].Dur() != time.Millisecond {
		t.Errorf("placed duration %v", got[1].Dur())
	}
}

func TestAttributeInnermostInternalPackage(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "ajaxcrawl/internal/dom.(*Node).Hash", "ajaxcrawl/internal/core.(*Crawler).CrawlPage"}, "dom"},
		{[]string{"strings.ToLower", "ajaxcrawl/internal/index.Tokenize", "ajaxcrawl/internal/query.Snippet", "ajaxcrawl/internal/serve.(*Server).handleSearch"}, "index"},
		{[]string{"ajaxcrawl/internal/js.(*Interp).call.func1", "ajaxcrawl/internal/browser.(*Page).Dispatch"}, "js"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "ajaxcrawl/internal/html.Parse"}, "gc"},
		{[]string{"net/http.(*conn).serve", "main.main"}, "other"},
		{[]string{"ajaxcrawl.BuildEngine"}, "other"},
	} {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// A real CPU profile of the DOM hashing code decodes, and its samples
// land on the dom package.
func TestCPUSharesFromRealProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles for half a second")
	}
	doc := html.Parse(strings.Repeat("<div id=a><p>hello <b>world</b></p><span>x</span></div>", 200))
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler busy:", err)
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		dom.CanonicalHash(doc)
	}
	pprof.StopCPUProfile()
	shares, total, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Skip("no samples taken")
	}
	// Under the race detector most samples land in its runtime, which
	// is "other"; what is charged to the program must be dom.
	if program := 1 - shares["other"] - shares["gc"]; shares["dom"] == 0 || shares["dom"] < 0.9*program {
		t.Fatalf("dom share %.2f of %v sampled, program share %.2f; want nearly all of it (shares %v)", shares["dom"], time.Duration(total), program, shares)
	}
}

func TestQueryPoolAndStream(t *testing.T) {
	site := webapp.New(webapp.DefaultConfig(60, 3))
	pool := queryPool(site, 3)
	if len(pool) != poolSize {
		t.Fatalf("pool has %d queries, want %d", len(pool), poolSize)
	}
	if pool[0] != webapp.Queries()[0] {
		t.Fatalf("pool starts with %q, want the Table 7.4 queries first", pool[0])
	}
	seen := map[string]bool{}
	for _, q := range pool {
		key := query.QueryString(query.Parse(q))
		if seen[key] {
			t.Fatalf("duplicate query %q", q)
		}
		seen[key] = true
	}
	a, b := newQueryStream(pool, 1), newQueryStream(pool, 1)
	head := 0
	for i := 0; i < 5000; i++ {
		if a.At(i) != b.At(i) {
			t.Fatalf("draw %d differs between equal streams", i)
		}
		if a.At(i) == pool[0] {
			head++
		}
	}
	if want := a.cdf[0] * 5000; float64(head) < 0.7*want || float64(head) > 1.3*want {
		t.Fatalf("most popular query drawn %d times of 5000, want about %.0f", head, want)
	}

	// Rounds hold the stream's first draws, dealt so that each round
	// asks for the most popular query about as often as any other.
	rounds := a.Rounds(5, 1000)
	count := map[string]int{}
	for i := 0; i < 5000; i++ {
		count[a.At(i)]++
	}
	for k, qs := range rounds {
		if len(qs) != 1000 {
			t.Fatalf("round %d has %d queries, want 1000", k, len(qs))
		}
		h := 0
		for _, q := range qs {
			count[q]--
			if q == pool[0] {
				h++
			}
		}
		if h < head/5 || h > head/5+1 {
			t.Errorf("round %d draws the most popular query %d times, want %d of the %d", k, h, head/5, head)
		}
	}
	for q, n := range count {
		if n != 0 {
			t.Fatalf("rounds hold %q %d times more or less than the stream", q, -n)
		}
	}
}

// BENCHMARK.json names exactly the metrics the benchmark prints, and
// spec.json says which end-to-end metric each per-layer metric should
// move, on which workloads.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark prints %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %+v, benchmark prints %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark prints %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, benchmark prints %+v", i, m, perLayer[i])
		}
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}

	var s struct {
		DefaultSeed, HeldOutSeed int64
		Workloads                map[string]json.RawMessage
		PerLayer                 map[string]struct {
			Moves  string   `json:"moves"`
			On     []string `json:"on"`
			Source string   `json:"source"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(specJSON, &s); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]bool{}
	for _, d := range endToEnd {
		e2e[d.Name] = true
	}
	for _, d := range perLayer {
		m, ok := s.PerLayer[d.Name]
		if !ok {
			t.Errorf("spec.json does not say what %s should move", d.Name)
			continue
		}
		if m.Moves != "none" && !e2e[m.Moves] {
			t.Errorf("%s moves %q, not an end-to-end metric", d.Name, m.Moves)
		}
		for _, w := range m.On {
			if workloads[w] == nil {
				t.Errorf("%s names unknown workload %q", d.Name, w)
			}
		}
		if m.Source == "" {
			t.Errorf("%s has no source", d.Name)
		}
	}
	if len(s.PerLayer) != len(perLayer) {
		t.Errorf("spec.json maps %d per-layer metrics, the benchmark prints %d", len(s.PerLayer), len(perLayer))
	}
}
