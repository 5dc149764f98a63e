package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"monge/internal/admit"
)

// span is one call into a layer, recorded by the benchmark around the
// layer's public entry point.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) record(name, parent string, op int, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{name, parent, op, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// write stores every span as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerMetrics are the per-layer metrics a traced run prints, in
// order; BENCHMARK.json's per_layer list names exactly these.
var layerMetrics = []struct{ name, unit string }{
	{"trace.overhead_pct", "%"},
	{"process.cpu_ms_per_query", "ms"},
	{"process.gc_pause_ms", "ms"},
	{"httpfront.handler_ms.dense", "ms"},
	{"httpfront.handler_ms.index", "ms"},
	{"httpfront.decode_ms", "ms"},
	{"httpfront.body_kb", "KB"},
	{"httpfront.wire_ms.dense", "ms"},
	{"httpfront.wire_ms.index", "ms"},
	{"marray.screen_ms", "ms"},
	{"admit.do_ms", "ms"},
	{"admit.rejected", "count"},
	{"admit.shed", "count"},
	{"admit.retried", "count"},
	{"serve.overhead_ms", "ms"},
	{"serve.imbalance", "count"},
	{"serve.do_ms.row-minima", "ms"},
	{"serve.do_ms.staircase", "ms"},
	{"serve.do_ms.tube", "ms"},
	{"serve.evals_over_smawk.row-minima", "ratio"},
	{"serve.evals_over_smawk.staircase", "ratio"},
	{"serve.evals_over_smawk.tube", "ratio"},
	{"native.evals_over_smawk", "ratio"},
	{"smawk.kernel_ms.row-minima", "ms"},
	{"smawk.kernel_ms.staircase", "ms"},
	{"smawk.kernel_ms.tube", "ms"},
	{"smawk.evals_per_query.row-minima", "count"},
	{"smawk.evals_per_query.staircase", "count"},
	{"smawk.evals_per_query.tube", "count"},
	{"minplus.multiply_ms", "ms"},
	{"minplus.evals_per_query", "count"},
	{"minplus.runs", "count"},
	{"minplus.facade_over_pool", "ratio"},
	{"minplus.mlink_ms", "ms"},
	{"minplus.mlink_evals", "count"},
	{"mindex.build_ms", "ms"},
	{"mindex.bytes", "B"},
	{"mindex.query_us", "us"},
	{"pram.steps.crcw-row-minima", "count"},
	{"pram.steps.crew-row-minima", "count"},
	{"pram.steps.staircase", "count"},
	{"pram.steps.tube", "count"},
	{"pram.work.crcw-row-minima", "count"},
	{"pram.work.crew-row-minima", "count"},
	{"pram.work.staircase", "count"},
	{"pram.work.tube", "count"},
	{"pram.ns_per_step", "ns"},
	{"hypercube.steps.hypercube", "count"},
	{"hypercube.steps.ccc", "count"},
	{"hypercube.steps.shuffle", "count"},
	{"hypercube.link_messages.hypercube", "count"},
	{"hypercube.link_messages.ccc", "count"},
	{"hypercube.link_messages.shuffle", "count"},
	{"hypercube.ns_per_step", "ns"},
	{"exec.loops_per_query", "count"},
	{"exec.chunks_per_query", "count"},
	{"evals_per_query.lib-implicit", "count"},
	{"evals_per_query.sim-tables", "count"},
}

// replayReps is how many times a replay calls each entry point per
// input; the layer's time is the mean.
const replayReps = 3

// replay collects one replay's layer readings. With no tracer it is
// the untraced replay the tracing overhead is measured against: the
// same calls and checks, with no clock reads and no spans around them.
type replay struct {
	tr      *tracer
	ops     int
	samples map[string][]float64
	vals    map[string]float64
	errs    []error
}

func newReplay(tr *tracer) *replay {
	return &replay{tr: tr, samples: map[string][]float64{}, vals: map[string]float64{}}
}

// op starts a new replayed operation and returns its id.
func (r *replay) op() int { r.ops++; return r.ops }

// call times f as a span and returns its duration in ms.
func (r *replay) call(name, parent string, op int, f func()) float64 {
	if r.tr == nil {
		f()
		return 0
	}
	s := time.Now()
	f()
	e := time.Now()
	r.tr.record(name, parent, op, s, e)
	return float64(e.Sub(s).Nanoseconds()) / 1e6
}

// add records one sample of a metric that is reported as a mean.
func (r *replay) add(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// set records a metric read once.
func (r *replay) set(name string, v float64) { r.vals[name] = v }

// check records a disagreement between a layer's answer and the
// oracle's or another layer's.
func (r *replay) check(what string, err error) {
	if err != nil {
		r.errs = append(r.errs, fmt.Errorf("%s: %w", what, err))
	}
}

// metrics returns every per-layer metric, failing if one was not measured.
func (r *replay) metrics() (map[string]metric, error) {
	out := map[string]metric{}
	for _, lm := range layerMetrics {
		v, ok := r.vals[lm.name]
		if s := r.samples[lm.name]; len(s) > 0 {
			v, ok = meanOf(s), true
		}
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", lm.name)
		}
		out[lm.name] = metric{v, lm.unit}
	}
	return out, nil
}

func meanOf(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// runTraced is the traced run. It runs the workload's own operations
// with one span each (served workloads are served in-process), which
// gives the process readings. Then it replays the operations of all
// four workloads at each layer's public entry point, so every
// per-layer metric is measured on every traced run, and writes the
// spans out. The replay runs three times, untraced, traced and
// untraced again; the tracing overhead is the traced replay's wall
// time over the mean of the untraced ones.
func runTraced(cfg config, w workload, info io.Writer) (result, error) {
	tr := newTracer()
	if _, err := timeSetups(w); err != nil {
		return result{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, err := cpuTicks(os.Getpid())
	if err != nil {
		w.stop()
		return result{}, err
	}
	env := startEnv(os.Getpid())
	ph := runPhase(w.clients(), dur(cfg.seconds), tr)
	envLine := env.finish()
	cpu1, _ := cpuTicks(os.Getpid())
	runtime.ReadMemStats(&ms1)
	var front admit.Stats
	if s, ok := w.(*served); ok && s.inproc != nil {
		front = s.inproc.front().Stats()
	}
	w.stop()

	r := newReplay(tr)
	passes := []*replay{newReplay(nil), r, newReplay(nil)}
	var wall [3]time.Duration
	for i, p := range passes {
		t0 := time.Now()
		if err := replayAll(cfg, p, &front); err != nil {
			return result{}, err
		}
		wall[i] = time.Since(t0)
	}
	untraced := (wall[0] + wall[2]).Seconds() / 2
	r.set("trace.overhead_pct", 100*(wall[1].Seconds()/untraced-1))
	r.set("process.cpu_ms_per_query", float64(cpu1-cpu0)*1000/clockTick/float64(ph.attempted))
	r.set("process.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	r.set("admit.rejected", float64(front.Rejected))
	r.set("admit.shed", float64(front.Shed))
	r.set("admit.retried", float64(front.Retried))

	m, err := r.metrics()
	if err != nil {
		return result{}, err
	}
	path := filepath.Join(cfg.outdir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return result{}, err
	}
	fmt.Fprintf(info, "env: %s\n", envLine)
	fmt.Fprintf(info, "spans: %d written to %s\n", len(tr.spans), path)
	fmt.Fprintf(info, "replay wall time: %.3f s traced; %.3f s and %.3f s untraced\n",
		wall[1].Seconds(), wall[0].Seconds(), wall[2].Seconds())
	failed, attempted := ph.failed, ph.attempted
	errs := []error{ph.firstErr}
	for _, p := range passes {
		failed += int64(len(p.errs))
		attempted += int64(p.ops)
		errs = append(errs, p.errs...)
	}
	for _, e := range errs {
		if e != nil {
			fmt.Fprintf(info, "failed: %v\n", e)
		}
	}
	return result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   m,
	}, nil
}

// replayAll replays all four workloads once, adding the in-process
// server's admission counts to front.
func replayAll(cfg config, r *replay, front *admit.Stats) error {
	srv, err := startInproc()
	if err != nil {
		return err
	}
	err = replayServed(cfg, r, srv)
	st := srv.front().Stats()
	front.Rejected += st.Rejected
	front.Shed += st.Shed
	front.Retried += st.Retried
	srv.close()
	if err != nil {
		return err
	}
	replayLib(cfg, r)
	replaySim(cfg, r)
	return nil
}
