package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// refCalibNs is the reference calibration time. Every measured slice
// is scaled by refCalibNs over the mean of the calibration times taken
// just before and just after it, so a normalized time reads as "what
// this slice would have taken on a host that runs the calibration
// kernel in refCalibNs". It is a fixed constant: reported numbers keep
// their units, and a change to the program cannot move it.
const refCalibNs = 5e6

// calibRounds and chaseSteps size the calibration kernel's two parts
// to about refCalibNs together on the 2-vCPU host reporting "Intel(R)
// Xeon(R) Processor" that the constant was taken on.
const (
	calibRounds = 305_000
	chaseSteps  = 18_000
)

// calibTable is the compute part's working set: 64 KiB of words,
// resident in L2 on any current core, touched with dependent loads.
var calibTable [1 << 13]uint64

// chaseTable is the memory part's working set: 16 MiB holding one
// random cycle, so every step is a dependent load that misses the
// private caches the way the fleet simulation's heap walks do. It is a
// global array, not heap memory, so it does not count in the live heap.
var chaseTable [1 << 22]uint32

// init links chaseTable into a single random cycle (Sattolo's
// algorithm) with a fixed seed.
func init() {
	for i := range chaseTable {
		chaseTable[i] = uint32(i)
	}
	x := uint64(0x2545F4914F6CDD1D)
	for i := len(chaseTable) - 1; i > 0; i-- {
		x = mix64(x + uint64(i))
		j := x % uint64(i)
		chaseTable[i], chaseTable[j] = chaseTable[j], chaseTable[i]
	}
}

// chasePos is where the next calibration's chase starts.
var chasePos uint32

// calibSink keeps the kernel's result live so the compiler cannot drop
// the loop.
var calibSink uint64

// calibKernel is the host-speed probe. It uses only the language, runs
// on the calling goroutine, allocates nothing, and never calls into the
// repository, so no change to the program under test can speed it up.
// It mixes the work the program does: integer hashing, dependent loads
// and stores in cache, floating-point arithmetic, and dependent loads
// that go to memory.
func calibKernel() uint64 {
	x := uint64(0x9E3779B97F4A7C15)
	var acc uint64
	f := 1.0
	for i := 0; i < calibRounds; i++ {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		j := (z ^ acc) & (uint64(len(calibTable)) - 1)
		acc += calibTable[j]
		calibTable[j] = z
		f = f*0.999999 + float64(z&0xff)*1e-3
	}
	p := chasePos
	for i := 0; i < chaseSteps; i++ {
		p = chaseTable[p]
	}
	chasePos = p
	return acc + uint64(f) + uint64(p)
}

// calibrator runs the kernel around measured slices and keeps every
// raw calibration time of the run.
type calibrator struct {
	raw []float64 // ns, in run order
	// gcInCalib counts GC cycles that completed inside a calibration.
	gcInCalib uint64
	gcSample  []metrics.Sample
}

func newCalibrator() *calibrator {
	return &calibrator{gcSample: []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}}
}

func (c *calibrator) gcCycles() uint64 {
	metrics.Read(c.gcSample)
	return c.gcSample[0].Value.Uint64()
}

// calibRuns is how many times one calibration runs the kernel.
const calibRuns = 5

// measure runs one calibration and returns its time in ns: the median
// of calibRuns kernel runs, so a single stall on the host does not move
// it while a slowdown that lasts through the calibration does.
func (c *calibrator) measure() float64 {
	gc0 := c.gcCycles()
	var runs [calibRuns]float64
	for i := range runs {
		t0 := time.Now()
		calibSink += calibKernel()
		runs[i] = float64(time.Since(t0).Nanoseconds())
	}
	c.gcInCalib += c.gcCycles() - gc0
	ns := median(runs[:])
	c.raw = append(c.raw, ns)
	return ns
}

// slice times fn between two calibrations and returns its raw duration
// and the scale that normalizes it: refCalibNs over the mean of the two
// calibration times.
func (c *calibrator) slice(fn func()) (raw time.Duration, scale float64) {
	before := c.measure()
	t0 := time.Now()
	fn()
	raw = time.Since(t0)
	after := c.measure()
	return raw, refCalibNs / ((before + after) / 2)
}

// calibUs is the median raw calibration time in µs.
func (c *calibrator) calibUs() float64 { return median(c.raw) / 1e3 }

// calibRange is the ratio of the slowest to the fastest calibration.
func (c *calibrator) calibRange() float64 {
	lo, hi := math.Inf(1), 0.0
	for _, v := range c.raw {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	if hi == 0 {
		return 1
	}
	return hi / lo
}

// speedFactor is the median host speed factor of the run: reference
// calibration time over measured, above 1 on a faster regime.
func (c *calibrator) speedFactor() float64 { return refCalibNs / median(c.raw) }

// quantile returns the q-quantile of vs by nearest rank (0 on empty).
// vs is sorted in place.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	i := int(math.Ceil(q*float64(len(vs)))) - 1
	if i < 0 {
		i = 0
	}
	return vs[i]
}

// median returns the median of vs, averaging the middle pair, without
// reordering vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// heapSampler polls the live heap while a slice runs and keeps each
// slice's peak.
type heapSampler struct {
	peaks []float64 // bytes, one per slice
	stop  chan struct{}
	done  chan struct{}
}

// start begins polling every 5 ms until end is called.
func (h *heapSampler) start() {
	h.stop, h.done = make(chan struct{}), make(chan struct{})
	h.peaks = append(h.peaks, 0)
	peak := &h.peaks[len(h.peaks)-1]
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			*peak = max(*peak, float64(s[0].Value.Uint64()))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
}

// end stops polling and waits for the poller to exit.
func (h *heapSampler) end() {
	close(h.stop)
	<-h.done
}

// peakMB is the median over slices of each slice's peak live heap, in
// MB: a high-water mark that one GC cycle's floating garbage does not
// move.
func (h *heapSampler) peakMB() float64 { return median(h.peaks) / 1e6 }

// allocStats reads the cumulative allocation and GC counters.
func allocStats() (objects, bytes, gcs uint64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}
