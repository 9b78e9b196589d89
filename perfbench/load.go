package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// openLoop is independent users: request i is due at start + i/rate and
// is sent then, whether or not earlier requests have finished. Latency
// is timed from the due time, so a stall also charges the wait it
// imposes on every request due during it; late is how far behind its
// schedule the generator itself sent each request. It returns once
// every request has completed.
func openLoop(rate float64, dur time.Duration, send func(i int)) (latency, late []time.Duration) {
	n := int(rate * dur.Seconds())
	latency = make([]time.Duration, n)
	late = make([]time.Duration, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			late[i] = time.Since(due)
			send(i)
			latency[i] = time.Since(due)
		}(i, due)
	}
	wg.Wait()
	return latency, late
}

// closedLoop is conns callers that each wait for a reply before sending
// again, until n requests have completed. It returns the wall time they
// took. The work is fixed, so a slow host makes the phase longer rather
// than different.
func closedLoop(conns, n int, send func(i int)) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				send(i)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}
