package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"

	"monge"
)

// simSizes are the sim-tables operation sizes, chosen so that every
// simulated search costs within about 3x of the others.
type simSizes struct {
	rowN, stairN, tubeN, netN int
}

func simSizesFor(tiny bool) simSizes {
	if tiny {
		return simSizes{rowN: 32, stairN: 32, tubeN: 8, netN: 16}
	}
	return simSizes{rowN: 4096, stairN: 512, tubeN: 80, netN: 128}
}

// simInputs are the sim-tables inputs and their oracle answers.
type simInputs struct {
	sz        simSizes
	row       *distArr
	stair     *stair
	tubeD     *distArr
	tubeE     *distArr
	net       *distArr // the networks' f(v[i], w[j]) input
	wantRow   []int
	wantStair []int
	wantTubeJ [][]int
	wantTubeV [][]float64
	wantNet   []int
}

func newSimInputs(seed int64, tiny bool) *simInputs {
	rng := rand.New(rand.NewSource(seed ^ 0x51a))
	sz := simSizesFor(tiny)
	in := &simInputs{sz: sz}
	in.row = newDistArr(rng, sz.rowN, sz.rowN)
	in.stair = newStair(rng, sz.stairN, sz.stairN)
	in.tubeD, in.tubeE = newTubeFactors(rng, sz.tubeN, sz.tubeN, sz.tubeN)
	in.net = newDistArr(rng, sz.netN, sz.netN)
	in.wantRow = bruteRowMinima(sz.rowN, sz.rowN, in.row.val)
	in.wantStair = bruteRowMinima(sz.stairN, sz.stairN, in.stair.val)
	in.wantTubeJ, in.wantTubeV = bruteTubeMaxima(sz.tubeN, sz.tubeN, sz.tubeN, in.tubeD.val, in.tubeE.val)
	in.wantNet = bruteRowMinima(sz.netN, sz.netN, in.net.val)
	return in
}

// simMachines are the simulated machines of one set-up, reused by every
// round (each search charges its own steps on top of the previous).
type simMachines struct {
	crcw, crew, stair, tube *monge.PRAM
	nets                    map[string]*monge.Network
}

var netKinds = []struct {
	name string
	kind monge.NetworkKind
}{{"hypercube", monge.Hypercube}, {"ccc", monge.CCC}, {"shuffle", monge.ShuffleExchange}}

func newSimMachines(sz simSizes) *simMachines {
	m := &simMachines{
		crcw:  monge.NewPRAM(monge.CRCW, sz.rowN),
		crew:  monge.NewPRAM(monge.CREW, sz.rowN),
		stair: monge.NewPRAM(monge.CRCW, sz.stairN),
		tube:  monge.NewPRAM(monge.CRCW, 2*sz.tubeN*sz.tubeN),
		nets:  map[string]*monge.Network{},
	}
	for _, k := range netKinds {
		m.nets[k.name] = monge.NewNetworkFor(k.kind, sz.netN, sz.netN)
	}
	return m
}

// simW is the sim-tables workload: one client running the paper's
// searches on the simulated PRAM and networks through the facade.
type simW struct {
	in   *simInputs
	mach *simMachines
	cnt  atomic.Int64
}

func newSimW(cfg config) *simW { return &simW{in: newSimInputs(cfg.seed, cfg.tiny)} }

func (w *simW) start() error {
	w.mach = newSimMachines(w.in.sz)
	for _, o := range simScript(w.in, w.mach, new(atomic.Int64)) {
		if err := o.do(); err != nil {
			return fmt.Errorf("sim-tables warm-up %s: %w", o.kind, err)
		}
	}
	return nil
}

func (w *simW) stop()                     { w.mach = nil }
func (w *simW) clients() [][]op           { return [][]op{simScript(w.in, w.mach, &w.cnt)} }
func (w *simW) pid() int                  { return os.Getpid() }
func (w *simW) peakRSS() (float64, error) { return peakRSSMB(os.Getpid()) }

// simScript is the client's round: row minima on the CRCW and CREW
// PRAM, staircase row minima and tube maxima on the CRCW PRAM, and row
// minima on the hypercube, cube-connected cycles and shuffle-exchange
// networks. Inputs are counted through cnt.
func simScript(in *simInputs, m *simMachines, cnt *atomic.Int64) []op {
	row := in.row.counted(cnt)
	st := in.stair.counted(cnt)
	tube := monge.Composite{D: in.tubeD.counted(cnt), E: in.tubeE.counted(cnt)}
	rowOn := func(mach *monge.PRAM) func() error {
		return func() error {
			idx, err := monge.RowMinimaPRAM(mach, row)
			if err != nil {
				return err
			}
			return checkIdx(idx, in.wantRow)
		}
	}
	ops := []op{
		{"pram-crcw-row-minima", rowOn(m.crcw)},
		{"pram-crew-row-minima", rowOn(m.crew)},
		{"pram-staircase", func() error {
			idx, err := monge.StaircaseRowMinimaPRAM(m.stair, st)
			if err != nil {
				return err
			}
			return checkIdx(idx, in.wantStair)
		}},
		{"pram-tube", func() error {
			j, v, err := monge.TubeMaximaPRAM(m.tube, tube)
			if err != nil {
				return err
			}
			return checkTube(j, v, in.wantTubeJ, in.wantTubeV)
		}},
	}
	// The networks hold v[i] and w[j] and evaluate f(v[i], w[j]) = (v[i]-w[j])².
	f := func(vi, wj float64) float64 {
		cnt.Add(1)
		return dist(vi - wj)
	}
	for _, k := range netKinds {
		mach := m.nets[k.name]
		ops = append(ops, op{"net-" + k.name, func() error {
			idx, err := monge.RowMinimaHypercube(mach, in.net.v, in.net.w, f)
			if err != nil {
				return err
			}
			return checkIdx(idx, in.wantNet)
		}})
	}
	return ops
}
