// Command perfbench is the repository benchmark. It runs four seeded
// workloads against the program's public interfaces — two crawls of the
// synthetic video site through ajaxcrawl.BuildEngine, and two serving
// fleets (ajaxserve alone, and a router over two ajaxserve shards) on
// loopback — checks every answer, and prints its metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the run is untraced and prints the end-to-end metrics.
// With --trace 1 it measures the workload untraced and then traced: the
// benchmark's own obs.Sink collects the program's spans, timing
// wrappers cover the interfaces the public API accepts, and a CPU
// profile charges samples to the program's packages. It prints the
// per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

//go:embed spec.json
var specJSON []byte

// spec is the part of spec.json the benchmark itself reads: the seeds
// and the recorded crawl digests. The rest of the file documents the
// workloads and metrics for readers.
type spec struct {
	DefaultSeed int64                          `json:"default_seed"`
	HeldOutSeed int64                          `json:"heldout_seed"`
	Digests     map[string]map[string][]string `json:"digests"`
}

func loadSpec() (spec, error) {
	var s spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return s, fmt.Errorf("spec.json: %w", err)
	}
	return s, nil
}

// run is one invocation's state: its settings, its correctness
// accounting and the metric values it will print.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	work     string // scratch directory, removed at exit
	spec     spec

	attempted, failed int64
	problems          []string
	values            map[string]float64
	notes             []string
}

// fail records n failed operations and why.
func (r *run) fail(n int64, format string, args ...any) {
	r.failed += n
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// note adds a line to the human-readable report.
func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// set records a metric value.
func (r *run) set(name string, v float64) { r.values[name] = v }

// recordedDigest is the crawl digest spec.json holds for site k of
// workload and this run's seed, if any.
func (r *run) recordedDigest(workload string, k int) string {
	ds := r.spec.Digests[workload][strconv.FormatInt(r.seed, 10)]
	if k < len(ds) {
		return ds[k]
	}
	return ""
}

var workloads = map[string]func(context.Context, *run) error{
	"crawl-yt":     func(ctx context.Context, r *run) error { return runCrawl(ctx, r, false) },
	"crawl-noisy":  func(ctx context.Context, r *run) error { return runCrawl(ctx, r, true) },
	"serve-routed": func(ctx context.Context, r *run) error { return runServe(ctx, r, true) },
	"serve-direct": func(ctx context.Context, r *run) error { return runServe(ctx, r, false) },
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var (
		workload = flag.String("workload", "", "workload: crawl-yt, crawl-noisy, serve-routed or serve-direct")
		seed     = flag.Int64("seed", sp.DefaultSeed, "input seed (spec.json names the default and the held-out seed)")
		seconds  = flag.Int("seconds", 15, "measured seconds")
		trace    = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		root     = flag.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
	)
	flag.Parse()
	wl, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		return 2
	}
	scratch := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		work:     work,
		spec:     sp,
		values:   map[string]float64{},
	}
	host := readHostFacts()
	host.Seed, host.Workload, host.Trace = r.seed, r.workload, r.trace
	hb, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hb)

	if err := wl(context.Background(), r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: r.failed == 0 && len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok && !r.trace {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.Name)
			return 1
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-28s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("fail_share %.6f (%d failed of %d attempted)\n", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: wrong:", p)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
