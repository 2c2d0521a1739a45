package main

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// runSelftests runs the benchmark's own checks: that normalization
// cancels a host slowdown, and that the output checks catch a corrupt
// reply.
func runSelftests() error {
	if err := selftestHog(); err != nil {
		return err
	}
	return selftestFaults()
}

// hogSink keeps the hog's arithmetic live.
var hogSink atomic.Uint64

// startHogs starts n goroutines that burn CPU until the returned stop
// function is called; stop waits for them to exit.
func startHogs(n int) (stop func()) {
	var quit atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(i + 1)
			for !quit.Load() {
				for j := 0; j < 1000; j++ {
					x = mix64(x + uint64(j))
				}
			}
			hogSink.Add(x)
		}()
	}
	return func() {
		quit.Store(true)
		wg.Wait()
	}
}

// hogRequests sizes the self-test's fleet trace: an eighth of cluster_1m.
const hogRequests = 1 << 17

// fleetRate runs fleet passes on f for about seconds and returns the
// raw and normalized simulated requests per second, each the median
// over passes.
func fleetRate(f *fleetRun, seconds float64) (raw, norm float64, err error) {
	var rawRates, normRates []float64
	start := time.Now()
	for len(rawRates) < 3 || time.Since(start).Seconds() < seconds {
		cells, err := f.pass(nil)
		if err != nil {
			return 0, 0, err
		}
		r, _ := passStats(cells, len(f.trace.Requests), false)
		n, _ := passStats(cells, len(f.trace.Requests), true)
		rawRates = append(rawRates, r)
		normRates = append(normRates, n)
	}
	return median(rawRates), median(normRates), nil
}

// selftestHog runs a short fleet_1m with and without CPU-burning
// goroutines beside it. The hogs must slow the raw rate clearly, and
// the normalized rate much less: normalization cancels a host slowdown.
func selftestHog() error {
	// Twice as many hogs as CPUs, each on its own thread: the operating
	// system shares the CPUs between the simulation, the calibration and
	// the hogs at a fine grain, as busy neighbours on the host would.
	hogs := 2 * runtime.NumCPU()
	prev := runtime.GOMAXPROCS(runtime.NumCPU() + hogs)
	defer runtime.GOMAXPROCS(prev)
	cal := newCalibrator()
	f, err := newFleetRun(defaultSeed, hogRequests, 1, cal, nil)
	if err != nil {
		return err
	}
	rawPlain, normPlain, err := fleetRate(f, 4)
	if err != nil {
		return err
	}
	stop := startHogs(hogs)
	rawHog, normHog, err := fleetRate(f, 4)
	stop()
	if err != nil {
		return err
	}
	if f.failed != 0 {
		return fmt.Errorf("hog: fleet checks failed: %v", f.problems)
	}
	rawSlow, normSlow := rawPlain/rawHog, normPlain/normHog
	fmt.Printf("selftest hog: raw rps %.0f -> %.0f (slowdown %.3f), normalized rps %.0f -> %.0f (slowdown %.3f)\n",
		rawPlain, rawHog, rawSlow, normPlain, normHog, normSlow)
	if rawSlow < 1.2 {
		return fmt.Errorf("hog: raw slowdown %.3f is too small to test normalization", rawSlow)
	}
	// The normalized rate must lose at most a third of what the raw
	// rate lost.
	if d := normSlow - 1; d < 0 && -d > (rawSlow-1)/3 || d > (rawSlow-1)/3 {
		return fmt.Errorf("hog: normalized slowdown %.3f against raw %.3f: normalization did not cancel the hog", normSlow, rawSlow)
	}
	fmt.Println("selftest hog: ok")
	return nil
}

// faultWriter corrupts one reply on its way out: it flips a body byte,
// or drops the X-Cache header.
type faultWriter struct {
	http.ResponseWriter
	dropHeader bool
	done       bool
}

// WriteHeader drops X-Cache when asked to, then writes the header.
func (w *faultWriter) WriteHeader(status int) {
	if w.dropHeader {
		w.Header().Del("X-Cache")
	}
	w.ResponseWriter.WriteHeader(status)
}

// Write flips a byte of the first body write, or drops X-Cache.
func (w *faultWriter) Write(p []byte) (int, error) {
	if w.dropHeader {
		w.Header().Del("X-Cache")
	} else if !w.done && len(p) > 0 {
		q := append([]byte(nil), p...)
		q[len(q)/2] ^= 0x20
		p = q
	}
	w.done = true
	return w.ResponseWriter.Write(p)
}

// injectFault wraps a handler so that the k-th request's reply is
// corrupted.
func injectFault(k int64, dropHeader bool) func(http.Handler) http.Handler {
	var n atomic.Int64
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if n.Add(1) == k {
				w = &faultWriter{ResponseWriter: w, dropHeader: dropHeader}
			}
			h.ServeHTTP(w, r)
		})
	}
}

// selftestFaults corrupts one reply per case and asserts that the
// output checks catch it: a flipped body byte and a dropped X-Cache
// header on every serving workload, and a corrupted fleet report.
func selftestFaults() error {
	cal := newCalibrator()
	for _, name := range workloads[:3] {
		for _, drop := range []bool{false, true} {
			svc := newService(name, defaultSeed)
			// The fault lands just after the warm-up, in the measured window.
			run, err := newServingRun(svc, defaultSeed, cal, nil, injectFault(int64(svc.warmup())+10, drop), 1)
			if err != nil {
				return err
			}
			run.measure(nil, nil)
			if err := run.finish(); err != nil {
				return err
			}
			fault := "flipped byte"
			if drop {
				fault = "dropped X-Cache"
			}
			if run.failed == 0 {
				return fmt.Errorf("faults: %s on %s went unnoticed", fault, name)
			}
			fmt.Printf("selftest faults: %s on %s: %d of %d requests failed the checks (ok_ratio %.6f): %s\n",
				fault, name, run.failed, run.attempted, okRatio(run.attempted, run.failed), run.problems[0])
		}
	}
	f, err := newFleetRun(defaultSeed, hogRequests, 1, cal, nil)
	if err != nil {
		return err
	}
	if _, err := f.pass(nil); err != nil {
		return err
	}
	f.corrupt = func(b []byte) { b[len(b)/2] ^= 0x20 }
	if _, err := f.cell("energy_aware", nil); err != nil {
		return err
	}
	if f.failed != 1 {
		return fmt.Errorf("faults: a corrupted fleet report gave %d failed cells, want 1", f.failed)
	}
	fmt.Printf("selftest faults: corrupted fleet report: %s\n", f.problems[0])
	fmt.Println("selftest faults: ok")
	return nil
}
