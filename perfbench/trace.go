package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/query"
	"ajaxcrawl/internal/router"
)

// Span names the benchmark records around the calls it makes into the
// program's public interfaces. The program's own spans (page.crawl,
// query.shard, router.fanout, ...) arrive in the same collector.
const (
	spanFetch      = "bench.fetch"       // one Fetcher.Fetch
	spanSave       = "bench.save"        // one Engine.SaveSnapshot
	spanReload     = "bench.reload"      // one serve.Server.Reload
	spanServeHTTP  = "bench.serve.http"  // one request through an ajaxserve handler
	spanRouterHTTP = "bench.router.http" // one request through the router handler
	spanBackend    = "bench.backend"     // one router.Backend.ShardSearch
	spanWire       = "bench.wire"        // one shard-client RoundTrip
	hopHeader      = "X-Perfbench-Hop"   // joins a RoundTrip to the shard handler it reached
	hopAttr        = "hop"
	shardAttr      = "shard" // the attribute router.shard spans carry
	candidatesAttr = "candidates"
	bytesAttr      = "bytes"
)

// collector is the benchmark-owned obs.Sink. It keeps every finished
// span, with its parent ID, in memory until the run ends.
type collector struct {
	mu    sync.Mutex
	spans []obs.SpanRecord
}

func (c *collector) Emit(r obs.SpanRecord) {
	c.mu.Lock()
	c.spans = append(c.spans, r)
	c.mu.Unlock()
}

// Take returns the spans collected so far and empties the collector.
func (c *collector) Take() []obs.SpanRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.spans
	c.spans = nil
	return out
}

// tracedFetcher times every fetch the crawler makes.
type tracedFetcher struct {
	inner fetch.Fetcher
}

func (f tracedFetcher) Fetch(ctx context.Context, rawurl string) (*fetch.Response, error) {
	ctx, sp := obs.StartSpan(ctx, spanFetch)
	resp, err := f.inner.Fetch(ctx, rawurl)
	if resp != nil {
		sp.SetAttr(bytesAttr, strconv.Itoa(len(resp.Body)))
	}
	sp.End(err)
	return resp, err
}

// tracedBackend times every shard call the router makes to shard
// group shard and records how many candidates the shard shipped.
type tracedBackend struct {
	inner router.Backend
	shard string
}

func (b tracedBackend) ShardSearch(ctx context.Context, q string) (*query.ShardResult, error) {
	ctx, sp := obs.StartSpan(ctx, spanBackend, obs.A(shardAttr, b.shard))
	res, err := b.inner.ShardSearch(ctx, q)
	if res != nil {
		sp.SetAttr(candidatesAttr, strconv.Itoa(len(res.Candidates)))
	}
	sp.End(err)
	return res, err
}

// tracedTransport times every shard-client round trip, counts the bytes
// of each response body, and tags the request so the shard handler's
// span can be joined to it across the HTTP hop.
type tracedTransport struct {
	inner http.RoundTripper
	next  atomic.Uint64
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx, sp := obs.StartSpan(req.Context(), spanWire)
	hop := strconv.FormatUint(t.next.Add(1), 10)
	sp.SetAttr(hopAttr, hop)
	req = req.Clone(ctx)
	req.Header.Set(hopHeader, hop)
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		sp.End(err)
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, span: sp}
	return resp, nil
}

// countingBody ends the round-trip span when the caller has read and
// closed the body, so the span covers the whole transfer.
type countingBody struct {
	io.ReadCloser
	span *obs.Span
	n    int
	once sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += n
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.span.SetAttr(bytesAttr, strconv.Itoa(b.n))
		b.span.End(nil)
	})
	return err
}

// tracedHandler opens a span around every request an HTTP handler
// serves, under the given telemetry, and records the hop tag a traced
// shard client put on the request.
func tracedHandler(tel *obs.Telemetry, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, sp := obs.StartSpan(obs.With(r.Context(), tel), name)
		if hop := r.Header.Get(hopHeader); hop != "" {
			sp.SetAttr(hopAttr, hop)
		}
		h.ServeHTTP(w, r.WithContext(ctx))
		sp.End(nil)
	})
}

// span is one finished span placed on the phase's time axis.
type span struct {
	ID, Parent uint64
	Name       string
	Start, End time.Duration // since the phase began
	Attrs      map[string]string
}

func (s span) Dur() time.Duration { return s.End - s.Start }

// place converts span records to offsets from t0 and joins two kinds
// of spans the program leaves unlinked. A span carrying a hop tag but
// no parent (a shard handler) goes under the round trip with the same
// tag, across the router→shard HTTP hop. A shard call goes under the
// router.shard span of its fan-out and shard group: the router does not
// hand that span's context to the Backend, so the call arrives as the
// fan-out's child.
func place(recs []obs.SpanRecord, t0 time.Time) []span {
	out := make([]span, len(recs))
	wireByHop := map[string]uint64{}
	type shardKey struct {
		fanout uint64
		shard  string
	}
	shardSpan := map[shardKey]uint64{}
	for i, r := range recs {
		start := r.Start.Sub(t0)
		out[i] = span{ID: r.ID, Parent: r.Parent, Name: r.Name, Start: start, End: start + r.Dur(), Attrs: r.Attrs}
		switch r.Name {
		case spanWire:
			wireByHop[r.Attrs[hopAttr]] = r.ID
		case obs.SpanRouterShard:
			shardSpan[shardKey{r.Parent, r.Attrs[shardAttr]}] = r.ID
		}
	}
	for i, s := range out {
		if hop := s.Attrs[hopAttr]; hop != "" && s.Name != spanWire && s.Parent == 0 {
			out[i].Parent = wireByHop[hop]
		}
		if s.Name == spanBackend {
			if id, ok := shardSpan[shardKey{s.Parent, s.Attrs[shardAttr]}]; ok {
				out[i].Parent = id
			}
		}
	}
	return out
}

// selfTime is a span's duration minus the part of it that its direct
// children cover. Overlapping children are counted once.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		if !open || v.a > curB {
			if open {
				covered += curB - curA
			}
			curA, curB, open = v.a, v.b, true
		} else if v.b > curB {
			curB = v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return parent.Dur() - covered
}

// wallShares splits the wall time of the frame [from, to) among the
// spans open at each instant. At every instant the innermost open spans
// (those with no open child) share that instant equally, and an instant
// with no open span is unattributed. The shares therefore sum to the
// frame's wall time exactly, however many spans run in parallel: with
// one thread of nested spans a span's share is its self time. Spans
// whose layer is "" take no part.
//
// Shares and the unattributed remainder are in nanoseconds, kept
// fractional so that they add up without rounding loss.
func wallShares(spans []span, from, to time.Duration, layer func(name string) string) (shares map[string]float64, unattributed float64) {
	type event struct {
		t     time.Duration
		start bool
		i     int
	}
	idx := make(map[uint64]int, len(spans))
	var evs []event
	for i, s := range spans {
		idx[s.ID] = i
		a, b := max(s.Start, from), min(s.End, to)
		if b > a && layer(s.Name) != "" {
			evs = append(evs, event{a, true, i}, event{b, false, i})
		}
	}
	sort.Slice(evs, func(x, y int) bool {
		if evs[x].t != evs[y].t {
			return evs[x].t < evs[y].t
		}
		if evs[x].start != evs[y].start {
			return !evs[x].start // ends first
		}
		// A parent's ID is lower than its children's: open parents
		// first and close children first.
		if evs[x].start {
			return spans[evs[x].i].ID < spans[evs[y].i].ID
		}
		return spans[evs[x].i].ID > spans[evs[y].i].ID
	})
	active := make([]bool, len(spans))
	openKids := make([]int, len(spans))
	countedIn := make([]int, len(spans)) // parent whose openKids counts this span, or -1
	inner := map[int]bool{}
	shares = map[string]float64{}
	acc := map[int]float64{}
	last := from
	flush := func(t time.Duration) {
		dt := float64(t - last)
		if dt > 0 {
			if len(inner) == 0 {
				unattributed += dt
			} else {
				each := dt / float64(len(inner))
				for i := range inner {
					acc[i] += each
				}
			}
		}
		last = t
	}
	for _, e := range evs {
		flush(e.t)
		s := spans[e.i]
		if e.start {
			active[e.i] = true
			countedIn[e.i] = -1
			if p, ok := idx[s.Parent]; ok && s.Parent != 0 && active[p] {
				countedIn[e.i] = p
				openKids[p]++
				delete(inner, p)
			}
			if openKids[e.i] == 0 {
				inner[e.i] = true
			}
			continue
		}
		active[e.i] = false
		delete(inner, e.i)
		if p := countedIn[e.i]; p >= 0 {
			openKids[p]--
			if active[p] && openKids[p] == 0 {
				inner[p] = true
			}
		}
	}
	flush(to)
	for i, ns := range acc {
		shares[layer(spans[i].Name)] += ns
	}
	return shares, unattributed
}

// layerAcc sums per-layer quantities over the traced part of a run.
type layerAcc struct {
	sums         map[string]float64
	wall         map[string]float64 // wall-time share per layer, ns
	wallTotal    float64            // ns
	unattributed float64            // ns
}

func newLayerAcc() *layerAcc {
	return &layerAcc{sums: map[string]float64{}, wall: map[string]float64{}}
}

func (a *layerAcc) add(name string, v float64) { a.sums[name] += v }

// addWall splits the wall time of one traced frame, the interval
// [from, to) of spans' time axis, among the layers.
func (a *layerAcc) addWall(spans []span, from, to time.Duration) {
	shares, un := wallShares(spans, from, to, wallLayer)
	for k, v := range shares {
		a.wall[k] += v
	}
	a.unattributed += un
	a.wallTotal += float64(to - from)
}

// finishWall sets the wall-time accounting per op (n ops in all frames),
// checks that the layer shares and the unattributed remainder add up to
// the wall time, and prints the table.
func (a *layerAcc) finishWall(r *run, n float64, op string) {
	layers := map[string]bool{otherLayer: true}
	for _, l := range wallLayers {
		layers[l] = true
	}
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Strings(names)
	total := a.unattributed
	perOp := func(ns float64) float64 { return ns / n / 1e6 }
	r.note("wall-time accounting per %s (each instant split among the innermost open spans):", op)
	for _, l := range names {
		total += a.wall[l]
		r.set(l, perOp(a.wall[l]))
		if a.wall[l] > 0 {
			r.note("  %-26s %10.4f ms %6.2f%%", l, perOp(a.wall[l]), 100*ratio(a.wall[l], a.wallTotal))
		}
	}
	r.set("unattributed_ms", perOp(a.unattributed))
	r.set("wall_ms", perOp(a.wallTotal))
	r.note("  %-26s %10.4f ms %6.2f%%", "unattributed_ms", perOp(a.unattributed), 100*ratio(a.unattributed, a.wallTotal))
	r.note("  %-26s %10.4f ms (layers + unattributed = %.4f ms)", "wall_ms", perOp(a.wallTotal), perOp(total))
	if diff := total - a.wallTotal; diff > 1e-6*a.wallTotal+1 || diff < -1e-6*a.wallTotal-1 {
		r.problems = append(r.problems, fmt.Sprintf("layer self times add up to %.0f ns, wall time is %.0f ns", total, a.wallTotal))
	}
}

// setCPUShares charges the traced phase's CPU profile to the program's
// packages.
func setCPUShares(r *run, profile []byte) error {
	shares, total, err := cpuShares(profile)
	if err != nil {
		return err
	}
	for _, l := range cpuLayers {
		r.set("cpu."+l+"_share", shares[l])
	}
	r.note("cpu profile: %.2f s sampled", float64(total)/1e9)
	return nil
}
