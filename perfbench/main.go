// Command perfbench is the repository's end-to-end benchmark. It runs
// one of four workloads — HTTP with dense bodies, HTTP over registered
// indexes, in-process library traffic on implicit arrays, and the
// paper's searches on the simulated machines — as closed-loop clients
// for a fixed time, checks every answer against oracles written apart
// from the program, and prints its metrics as one JSON line:
//
//	bash perfbench/run.sh --workload http-dense --seed 1 --seconds 10 --trace 0
//
// With --trace 1 it instead replays the operations at each layer's
// entry point under in-memory spans and prints the per-layer metrics;
// see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// server is the mongeserve binary the served workloads start as a
	// child process; empty serves the same handler in-process.
	server string
	// outdir receives the span file of a traced run.
	outdir string
	// tiny shrinks every size for the self-test smoke run.
	tiny bool
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloadNames = []string{"http-dense", "http-index", "lib-implicit", "sim-tables"}

func main() { os.Exit(mainImpl(os.Args[1:], os.Stdout, os.Stderr)) }

func mainImpl(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceN int
	fs.StringVar(&cfg.workload, "workload", "", "workload: http-dense, http-index, lib-implicit or sim-tables")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of every input, query cycle and oracle answer")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&traceN, "trace", 0, "1: traced run printing the per-layer metrics")
	fs.StringVar(&cfg.server, "server", "", "mongeserve binary for the served workloads (empty: serve in-process)")
	fs.StringVar(&cfg.outdir, "outdir", ".", "directory for the span file of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = traceN != 0
	known := false
	for _, w := range workloadNames {
		known = known || w == cfg.workload
	}
	if !known || cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload one of %v and --seconds > 0\n", workloadNames)
		return 2
	}
	res, err := run(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// run builds the workload and measures it, untraced or traced.
func run(cfg config, info io.Writer) (result, error) {
	if cfg.trace {
		cfg.server = "" // the traced run builds the whole stack in-process
	}
	w, err := newWorkload(cfg)
	if err != nil {
		return result{}, err
	}
	if cfg.trace {
		return runTraced(cfg, w, info)
	}
	return runMeasured(cfg, w, info)
}

// A run sets the program up at least minSetups times and until
// setupBudget has been spent, at most maxSetups times; setup_s is the
// median, since one set-up is too short to time steadily.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 4 * time.Second
)

// runMeasured is the untraced run: set up several times, keep the last
// instance, run the timed phase, report every end-to-end metric.
func runMeasured(cfg config, w workload, info io.Writer) (result, error) {
	setups, err := timeSetups(w)
	if err != nil {
		return result{}, err
	}
	defer w.stop()
	env := startEnv(w.pid())
	ph := runPhase(w.clients(), dur(cfg.seconds), nil)
	envLine := env.finish()
	rss, err := w.peakRSS()
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(info, "env: %s\n", envLine)
	sort.Float64s(setups)
	fmt.Fprintf(info, "set-ups: %d, %.4f s to %.4f s\n", len(setups), setups[0], setups[len(setups)-1])
	fmt.Fprintf(info, "timed phase: %.2f ops/s; p50 %.3f ms, p90 %.3f ms, p99 %.3f ms over %d samples; %d rounds\n",
		ph.rate(), ph.quantile(0.5), ph.quantile(0.9), ph.quantile(0.99), len(ph.lat), ph.rounds)
	fmt.Fprintf(info, "median ms by kind:%s\n", ph.byKind())
	if ph.firstErr != nil {
		fmt.Fprintf(info, "failed: %v\n", ph.firstErr)
	}
	return result{
		Correct:   ph.failed == 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics: map[string]metric{
			"throughput_qps": {ph.rate(), "1/s"},
			"latency_p50_ms": {ph.quantile(0.5), "ms"},
			"latency_p90_ms": {ph.quantile(0.9), "ms"},
			"setup_s":        {median(setups), "s"},
			"peak_rss_mb":    {rss, "MB"},
		},
	}, nil
}

// timeSetups starts the workload repeatedly, stopping all but the last
// instance, and returns each set-up's duration in seconds.
func timeSetups(w workload) ([]float64, error) {
	var out []float64
	var spent time.Duration
	for k := 0; k < maxSetups && (k < minSetups || spent < setupBudget); k++ {
		if k > 0 {
			w.stop()
		}
		t0 := time.Now()
		if err := w.start(); err != nil {
			w.stop()
			return nil, err
		}
		d := time.Since(t0)
		spent += d
		out = append(out, d.Seconds())
	}
	return out, nil
}

func dur(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// goEnv names the toolchain and CPU budget of the run.
func goEnv() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

// newWorkload builds a workload's inputs and oracle answers; none of
// that counts as set-up.
func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "http-dense", "http-index":
		return newServed(cfg), nil
	case "lib-implicit":
		return newLibW(cfg), nil
	default:
		return newSimW(cfg), nil
	}
}
