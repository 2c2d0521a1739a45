// Command perfbench is the repository's benchmark. It runs one of four
// workloads against the real program from a seed, checks every output,
// and prints its metrics as the last line of standard output:
//
//	bash perfbench/run.sh --workload eval_zipf --seed 1 --seconds 20 --trace 0
//
// Workloads: eval_zipf, evalbatch_miss and campaign_mix drive rooflined
// (internal/server) over a loopback listener with a closed loop of one
// keep-alive connection per CPU; fleet_1m runs the cluster_1m fleet
// simulation (internal/cluster) once per routing policy.
//
// Every timing is host-normalized: a fixed calibration kernel runs just
// before and just after every measured slice, and the slice's time is
// scaled by a reference calibration time over the mean of the two, so
// a shift in host speed between runs cancels. Raw values are printed on
// the detail line that precedes the result.
//
// With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics of a traced run, and a
// Chrome trace is written under .bench_build/. --selftest runs the
// normalization and fault-injection self-tests instead. See
// perfbench/README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

const (
	// defaultSeed is the seed the benchmark's recorded figures use.
	defaultSeed = 1
	// heldOutSeed is kept out of tuning: later changes confirm their
	// claims on it.
	heldOutSeed = 7919
)

// workloads lists the benchmark's workloads in run order.
var workloads = []string{"eval_zipf", "evalbatch_miss", "campaign_mix", "fleet_1m"}

// e2eUnits gives every end-to-end metric's unit.
var e2eUnits = map[string]string{
	"rps":          "req/s",
	"p50_us":       "us",
	"p90_us":       "us",
	"ok_ratio":     "ratio",
	"j_per_req":    "J",
	"peak_heap_mb": "MB",
	"setup_s":      "s",
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int64
	problems          []string
	e2e               map[string]float64 // normalized end-to-end metrics
	raw               map[string]float64 // the same timings, unnormalized
	layers            map[string]float64 // per-layer metrics (traced run)
	detail            map[string]any
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func gomaxprocs() int { return runtime.GOMAXPROCS(0) }

// cpuModel reads the CPU model name, empty when unavailable.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
		seed     = flag.Int64("seed", defaultSeed, "input seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 20, "measured time of the run")
		traced   = flag.Int("trace", 0, "1 runs the traced per-layer measurement")
		selftest = flag.Bool("selftest", false, "run the normalization and fault-injection self-tests")
	)
	flag.Parse()
	if *selftest {
		if err := runSelftests(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: selftest:", err)
			os.Exit(1)
		}
		return
	}
	known := false
	for _, w := range workloads {
		known = known || w == *name
	}
	if !known {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloads, ", "))
		os.Exit(2)
	}
	// GOMAXPROCS follows nproc, and the closed loop opens as many
	// connections.
	runtime.GOMAXPROCS(runtime.NumCPU())

	cal := newCalibrator()
	var out *outcome
	var err error
	if *traced == 1 {
		out, err = runTraced(*name, *seed, *seconds, cal)
	} else {
		out, err = runWorkload(*name, *seed, *seconds, cal)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	if *traced == 1 {
		for k, v := range out.layers {
			res.Metrics[k] = metric{Value: v, Unit: layerUnits[k]}
		}
	} else {
		for k, v := range out.e2e {
			res.Metrics[k] = metric{Value: v, Unit: e2eUnits[k]}
		}
	}
	detail := map[string]any{
		"workload":          *name,
		"seed":              *seed,
		"default_seed":      defaultSeed,
		"held_out_seed":     heldOutSeed,
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        gomaxprocs(),
		"cpu":               cpuModel(),
		"go":                runtime.Version(),
		"connections":       conns(),
		"host_speed_factor": cal.speedFactor(),
		"host.calib_us":     cal.calibUs(),
		"host.calib_range":  cal.calibRange(),
		"calib_count":       len(cal.raw),
		"gc_in_calib":       cal.gcInCalib,
		"calib_raw_ns":      cal.raw,
		"raw":               out.raw,
		"problems":          out.problems,
	}
	for k, v := range out.detail {
		detail[k] = v
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"detail": detail}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		for _, p := range out.problems {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
		}
		os.Exit(1)
	}
}

// runWorkload runs the named workload untraced.
func runWorkload(name string, seed int64, seconds float64, cal *calibrator) (*outcome, error) {
	if name == "fleet_1m" {
		return runFleet(seed, seconds, cal)
	}
	return runServing(newService(name, seed), seed, seconds, cal)
}
