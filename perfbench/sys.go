package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"
)

// processCPU is the user plus system CPU time the whole process has
// used (getrusage), load generator and servers included.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeCounters reads the Go runtime counters a phase is charged
// with: completed GC cycles and bytes allocated on the heap.
type runtimeCounters struct {
	gcCycles   uint64
	allocBytes uint64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return runtimeCounters{gcCycles: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64()}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{gcCycles: a.gcCycles - b.gcCycles, allocBytes: a.allocBytes - b.allocBytes}
}

// heapPeak samples the live heap (as of the latest GC) while a phase
// runs and keeps the largest value seen.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
	mu   sync.Mutex
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapPeak) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	h.mu.Lock()
	if v := s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// Stop ends sampling and returns the peak in MiB. Calls after the
// first only return the peak.
func (h *heapPeak) Stop() float64 {
	h.once.Do(func() {
		close(h.stop)
		<-h.done
		h.sample()
	})
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

// hostFacts are recorded with every result so that a number can be
// checked against the host that produced it.
type hostFacts struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	LoadAvg    string `json:"loadavg_1_5_15"`
	Seed       int64  `json:"seed"`
	Workload   string `json:"workload"`
	Trace      bool   `json:"trace"`
}

func readHostFacts() hostFacts {
	h := hostFacts{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		LoadAvg:    "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) >= 3 {
			h.LoadAvg = strings.Join(f[:3], " ")
		}
	}
	return h
}
