package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// op is one operation of a client's script. do runs it and compares
// the answer with the oracle's, which was computed before the timed
// phase, so that only an O(answer) comparison runs while timed.
type op struct {
	kind string
	do   func() error
}

// workload is one traffic mix over one set-up of the program.
type workload interface {
	// start is one set-up: from the first call into the program (or
	// the server's start) through the warm-up pass over every distinct
	// input, whose answers it checks in full.
	start() error
	// stop releases what start built; safe to call twice.
	stop()
	// clients returns each closed-loop client's script.
	clients() [][]op
	// pid is the process running the program.
	pid() int
	// peakRSS is that process's peak resident memory in MB.
	peakRSS() (float64, error)
}

// phase is the outcome of one timed phase.
type phase struct {
	lat       []float64 // per-operation latency, ms
	kind      []string  // kind of each lat entry
	attempted int64
	failed    int64
	rounds    int64
	elapsed   time.Duration
	firstErr  error
}

// rate is the operations completed per second of the timed phase.
func (p *phase) rate() float64 { return float64(p.attempted) / p.elapsed.Seconds() }

func (p *phase) quantile(q float64) float64 { return quantile(p.lat, q) }

// quantile is the q-quantile of xs by the nearest-rank rule.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// runPhase runs every client's script in whole rounds, closed loop, on
// its own goroutine until d has passed; a round that has begun is
// finished, so every run attempts whole rounds of the same operations.
// With tr set, every operation is recorded as a span.
func runPhase(clients [][]op, d time.Duration, tr *tracer) phase {
	var (
		mu  sync.Mutex
		out phase
		wg  sync.WaitGroup
	)
	t0 := time.Now()
	deadline := t0.Add(d)
	for c, script := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat := make([]float64, 0, 4096)
			kinds := make([]string, 0, 4096)
			var rounds int64
			var failed int64
			var firstErr error
			for time.Now().Before(deadline) {
				for _, o := range script {
					s := time.Now()
					err := o.do()
					e := time.Now()
					lat = append(lat, float64(e.Sub(s).Nanoseconds())/1e6)
					kinds = append(kinds, o.kind)
					if tr != nil {
						tr.record(o.kind, "", c*1_000_000+len(lat), s, e)
					}
					if err != nil {
						failed++
						if firstErr == nil {
							firstErr = fmt.Errorf("%s: %w", o.kind, err)
						}
					}
				}
				rounds++
			}
			mu.Lock()
			out.lat = append(out.lat, lat...)
			out.kind = append(out.kind, kinds...)
			out.attempted += int64(len(lat))
			out.failed += failed
			out.rounds += rounds
			if out.firstErr == nil {
				out.firstErr = firstErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.elapsed = time.Since(t0)
	return out
}

// byKind returns "kind=median_ms" for every kind, in script order.
func (p *phase) byKind() string {
	var order []string
	per := map[string][]float64{}
	for i, k := range p.kind {
		if per[k] == nil {
			order = append(order, k)
		}
		per[k] = append(per[k], p.lat[i])
	}
	out := ""
	for _, k := range order {
		out += fmt.Sprintf(" %s=%.3f", k, median(per[k]))
	}
	return out
}
