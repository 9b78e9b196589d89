package main

import "ajaxcrawl/internal/obs"

// metricDef is one metric as BENCHMARK.json names it.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics an untraced run prints, on every workload.
// An "op" is an admitted state on the crawl workloads (cpu_ms_per_op)
// and a request on the serve workloads. p50_ms and tail_ms time a page
// crawl or an open-loop request; tail_ms is the highest percentile, up
// to p99, with at least ten samples beyond it, which a workload's fixed
// sample count fixes (spec.json gives each definition per workload).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"p50_ms", "ms", "lower"},
	{"tail_ms", "ms", "lower"},
	{"mem.peak_heap_mb", "MB", "lower"},
}

// wallLayers maps the spans of a traced phase to the layers whose
// wall-time shares add up, with unattributed_ms, to wall_ms. Spans of
// other names go to other_self_ms, except line.crawl: the program opens
// it for a process line's lifetime without making it the parent of the
// pages the line crawls, so it would compete with them for every
// instant. It takes no share; a line's idle time is unattributed.
var wallLayers = map[string]string{
	obs.SpanPageCrawl:     "core.page_self_ms",
	obs.SpanEventDispatch: "browser.dispatch_self_ms",
	obs.SpanXHRSend:       "browser.xhr_self_ms",
	spanFetch:             "fetch.self_ms",
	obs.SpanFetchRetry:    "fetch.self_ms",
	obs.SpanIndexBuild:    "index.build_self_ms",
	spanSave:              "index.save_self_ms",
	spanReload:            "index.reload_self_ms",
	spanServeHTTP:         "serve.handler_self_ms",
	obs.SpanQueryExec:     "query.self_ms",
	obs.SpanShardEval:     "query.self_ms",
	spanRouterHTTP:        "router.handler_self_ms",
	obs.SpanRouterFanout:  "router.fanout_self_ms",
	obs.SpanRouterShard:   "router.shard_self_ms",
	spanBackend:           "router.backend_self_ms",
	spanWire:              "router.wire_self_ms",
}

const otherLayer = "other_self_ms"

func wallLayer(name string) string {
	if name == obs.SpanLineCrawl {
		return ""
	}
	if l, ok := wallLayers[name]; ok {
		return l
	}
	return otherLayer
}

// perLayer are the metrics a traced run prints, on every workload; a
// layer the workload leaves idle reads 0.
var perLayer = []metricDef{
	// Wall-time accounting: per crawl on crawl-*, per request on serve-*.
	{"wall_ms", "ms", "lower"},
	{"unattributed_ms", "ms", "lower"},
	{"core.page_self_ms", "ms", "lower"},
	{"browser.dispatch_self_ms", "ms", "lower"},
	{"browser.xhr_self_ms", "ms", "lower"},
	{"fetch.self_ms", "ms", "lower"},
	{"index.build_self_ms", "ms", "lower"},
	{"index.save_self_ms", "ms", "lower"},
	{"index.reload_self_ms", "ms", "lower"},
	{"serve.handler_self_ms", "ms", "lower"},
	{"query.self_ms", "ms", "lower"},
	{"router.handler_self_ms", "ms", "lower"},
	{"router.fanout_self_ms", "ms", "lower"},
	{"router.shard_self_ms", "ms", "lower"},
	{"router.backend_self_ms", "ms", "lower"},
	{"router.wire_self_ms", "ms", "lower"},
	{"other_self_ms", "ms", "lower"},

	{"fetch.calls", "count", "lower"},
	{"fetch.bytes", "bytes", "lower"},
	{"fetch.busy_ms", "ms", "lower"},
	{"core.page_ms.p50", "ms", "lower"},
	{"core.page_ms.p99", "ms", "lower"},
	{"core.events_per_state", "ratio", "lower"},
	{"core.line_busy_share", "share", "higher"},
	{"hotnode.hit_ratio", "ratio", "higher"},
	{"browser.xhr_ms", "ms", "lower"},
	{"lsh.probes", "count", "lower"},
	{"lsh.candidates", "count", "lower"},
	{"lsh.merge_ratio", "ratio", "higher"},
	{"frontier.steals", "count", "lower"},
	{"index.build_ms", "ms", "lower"},
	{"index.save_ms", "ms", "lower"},
	{"index.reload_ms", "ms", "lower"},

	{"query.shard_eval_ms.p50", "ms", "lower"},
	{"query.shard_eval_ms.p99", "ms", "lower"},
	{"query.candidates_per_call", "count", "lower"},
	{"query.useful_ratio", "ratio", "higher"},
	{"query.exec_ms", "ms", "lower"},
	{"query.cache.hit_ratio", "ratio", "higher"},
	{"query.cache.evictions", "count", "lower"},
	{"serve.handler_ms.p50", "ms", "lower"},
	{"serve.handler_ms.p99", "ms", "lower"},
	{"serve.encode_ms", "ms", "lower"},
	{"router.http_ms", "ms", "lower"},
	{"router.fanout_ms", "ms", "lower"},
	{"router.shard_call_ms.p50", "ms", "lower"},
	{"router.shard_call_ms.p99", "ms", "lower"},
	{"router.merge_self_ms", "ms", "lower"},
	{"router.shard_bytes", "bytes", "lower"},

	{"gc.cycles_per_s", "1/s", "lower"},
	{"alloc_kb_per_op", "KiB", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"trace.overhead_share", "share", "lower"},
}

func init() {
	for _, l := range cpuLayers {
		perLayer = append(perLayer, metricDef{"cpu." + l + "_share", "share", "lower"})
	}
}
