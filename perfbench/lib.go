package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync/atomic"

	"monge"
)

// libSizes are the lib-implicit operation sizes, chosen so that every
// operation costs within about 3x of the others on a 2-vCPU host.
type libSizes struct {
	rowN, stairN, tubeN, minplusN, mlinkN, mlinkM int
}

func libSizesFor(tiny bool) libSizes {
	if tiny {
		return libSizes{rowN: 64, stairN: 64, tubeN: 12, minplusN: 16, mlinkN: 48, mlinkM: 4}
	}
	return libSizes{rowN: 4096, stairN: 2048, tubeN: 256, minplusN: 160, mlinkN: 4096, mlinkM: 64}
}

// libInputs are the lib-implicit inputs and their oracle answers,
// shared by every client (each client wraps them with its own counter).
type libInputs struct {
	sz        libSizes
	row       *distArr
	stair     *stair
	tubeD     *distArr
	tubeE     *distArr
	mpA, mpB  *distArr
	link      *linkWeight
	wantRow   []int
	wantStair []int
	wantTubeJ [][]int
	wantTubeV [][]float64
	wantMPV   [][]float64
	wantMPW   [][]int
	wantLink  float64
}

func newLibInputs(seed int64, tiny bool) *libInputs {
	rng := rand.New(rand.NewSource(seed ^ 0x11b))
	sz := libSizesFor(tiny)
	in := &libInputs{sz: sz}
	in.row = newDistArr(rng, sz.rowN, sz.rowN)
	in.stair = newStair(rng, sz.stairN, sz.stairN)
	in.tubeD, in.tubeE = newTubeFactors(rng, sz.tubeN, sz.tubeN, sz.tubeN)
	in.mpA = newDistArr(rng, sz.minplusN, sz.minplusN)
	in.mpB = newDistArr(rng, sz.minplusN, sz.minplusN)
	in.link = newLinkWeight(rng, sz.mlinkN, sz.mlinkM)

	in.wantRow = bruteRowMinima(sz.rowN, sz.rowN, in.row.val)
	in.wantStair = bruteRowMinima(sz.stairN, sz.stairN, in.stair.val)
	in.wantTubeJ, in.wantTubeV = bruteTubeMaxima(sz.tubeN, sz.tubeN, sz.tubeN, in.tubeD.val, in.tubeE.val)
	in.wantMPV, in.wantMPW = bruteMinPlus(sz.minplusN, sz.minplusN, sz.minplusN, in.mpA.val, in.mpB.val)
	in.wantLink = bruteMLinkCost(sz.mlinkN, sz.mlinkM, in.link.val)
	return in
}

// libW is the lib-implicit workload: nproc in-process clients on the
// root facade — DriverPool.Do (native backend) for the three search
// kinds, monge.MinPlus and monge.MLinkPath — with no HTTP.
type libW struct {
	in   *libInputs
	pool *monge.DriverPool
	cnt  []*atomic.Int64 // one entry-evaluation counter per client
}

func newLibW(cfg config) *libW {
	w := &libW{in: newLibInputs(cfg.seed, cfg.tiny)}
	for c := 0; c < runtime.NumCPU(); c++ {
		w.cnt = append(w.cnt, new(atomic.Int64))
	}
	return w
}

func newLibPool() *monge.DriverPool {
	return monge.NewDriverPoolOpts(monge.CRCW, monge.PoolOptions{Backend: monge.BackendNative})
}

func (w *libW) start() error {
	w.pool = newLibPool()
	for _, o := range w.script(new(atomic.Int64), true) {
		if err := o.do(); err != nil {
			return fmt.Errorf("lib-implicit warm-up %s: %w", o.kind, err)
		}
	}
	return nil
}

func (w *libW) stop() {
	if w.pool != nil {
		w.pool.Close()
		w.pool = nil
	}
}

func (w *libW) clients() [][]op {
	out := make([][]op, len(w.cnt))
	for c := range out {
		out[c] = w.script(w.cnt[c], false)
	}
	return out
}

func (w *libW) pid() int                  { return os.Getpid() }
func (w *libW) peakRSS() (float64, error) { return peakRSSMB(os.Getpid()) }

// evals is the entry evaluations counted over every client so far.
func (w *libW) evals() int64 {
	var n int64
	for _, c := range w.cnt {
		n += c.Load()
	}
	return n
}

// script is one client's round. Inputs are counted through cnt. With
// full set the (min,+) check also recomputes every product value; the
// timed rounds compare witnesses only, since values are evaluations of
// the counted factors.
func (w *libW) script(cnt *atomic.Int64, full bool) []op {
	in := w.in
	ctx := context.Background()
	row := in.row.counted(cnt)
	st := in.stair.counted(cnt)
	tube := monge.Composite{D: in.tubeD.counted(cnt), E: in.tubeE.counted(cnt)}
	a, b := in.mpA.counted(cnt), in.mpB.counted(cnt)
	link := in.link.fn(cnt)
	return []op{
		{"row-minima", func() error {
			r := w.pool.Do(ctx, monge.RowMinimaRequest(row))
			if r.Err != nil {
				return r.Err
			}
			return checkIdx(r.Idx, in.wantRow)
		}},
		{"staircase", func() error {
			r := w.pool.Do(ctx, monge.StaircaseRowMinimaRequest(st))
			if r.Err != nil {
				return r.Err
			}
			return checkIdx(r.Idx, in.wantStair)
		}},
		{"tube", func() error {
			r := w.pool.Do(ctx, monge.TubeMaximaRequest(tube))
			if r.Err != nil {
				return r.Err
			}
			return checkTube(r.TubeJ, r.TubeV, in.wantTubeJ, in.wantTubeV)
		}},
		{"minplus", func() error {
			p, err := monge.MinPlus(a, b)
			if err != nil {
				return err
			}
			return checkProduct(p, in.wantMPV, in.wantMPW, full)
		}},
		{"mlink", func() error {
			cost, path, err := monge.MLinkPath(in.sz.mlinkN, link, in.sz.mlinkM)
			if err != nil {
				return err
			}
			return checkMLink(in.sz.mlinkN, in.sz.mlinkM, in.link.val, cost, path, in.wantLink)
		}},
	}
}
