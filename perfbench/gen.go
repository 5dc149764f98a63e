package main

import (
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
)

// Inputs follow the paper's distance model: a[i][j] = f(v[i] - w[j]) with
// f convex and v, w sorted ascending, which makes every array Monge.
// Everything is drawn from one seeded generator, so a seed fixes every
// input, every query cycle and every oracle answer.

// sortedVec returns n sorted values drawn uniformly from [lo, hi).
func sortedVec(rng *rand.Rand, n int, lo, hi float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = lo + rng.Float64()*(hi-lo)
	}
	sort.Float64s(v)
	return v
}

// dist is the convex cost f(x) = x² of the distance model.
func dist(x float64) float64 { return x * x }

// distArr is the implicit m×n Monge array f(v[i]-w[j]) + row[i] + col[j].
// Row and column terms keep the array Monge; the tube factors use a
// concave one so that tube maxima land inside the middle dimension, not
// at its ends.
// A non-nil cnt counts every entry evaluation, which is how the
// benchmark measures the paper's cost model without touching the
// program.
type distArr struct {
	v, w, row, col []float64
	cnt            *atomic.Int64
}

func (a *distArr) Rows() int { return len(a.v) }
func (a *distArr) Cols() int { return len(a.w) }
func (a *distArr) At(i, j int) float64 {
	if a.cnt != nil {
		a.cnt.Add(1)
	}
	return a.val(i, j)
}

// val is the raw entry, for oracles and encoders (never counted).
func (a *distArr) val(i, j int) float64 {
	x := dist(a.v[i] - a.w[j])
	if a.row != nil {
		x += a.row[i]
	}
	if a.col != nil {
		x += a.col[j]
	}
	return x
}

// counted returns a view of a sharing its data with its own counter.
func (a *distArr) counted(cnt *atomic.Int64) *distArr {
	return &distArr{v: a.v, w: a.w, row: a.row, col: a.col, cnt: cnt}
}

// stair is a distArr whose row i is blocked (+Inf) from column
// bound[i] on; bound is non-increasing, so the blocked region is closed
// to the right and downward and the array is staircase-Monge.
type stair struct {
	*distArr
	bound []int
}

func (s *stair) At(i, j int) float64 {
	if s.cnt != nil {
		s.cnt.Add(1)
	}
	return s.val(i, j)
}

func (s *stair) val(i, j int) float64 {
	if j >= s.bound[i] {
		return math.Inf(1)
	}
	return s.distArr.val(i, j)
}

// Boundary implements marray.Staircase.
func (s *stair) Boundary(i int) int { return s.bound[i] }

func (s *stair) counted(cnt *atomic.Int64) *stair {
	return &stair{distArr: s.distArr.counted(cnt), bound: s.bound}
}

func newDistArr(rng *rand.Rand, m, n int) *distArr {
	return &distArr{v: sortedVec(rng, m, 0, 1), w: sortedVec(rng, n, 0, 1)}
}

// newStair draws a staircase whose rows keep between n and n/4 finite
// entries (never zero, so every row has a minimum).
func newStair(rng *rand.Rand, m, n int) *stair {
	b := make([]int, m)
	for i := range b {
		b[i] = n/4 + rng.Intn(n-n/4) + 1
		if b[i] > n {
			b[i] = n
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(b)))
	return &stair{distArr: newDistArr(rng, m, n), bound: b}
}

// newTubeFactors returns D (p×q) and E (q×r) of a Monge-composite array
// d[i][j] + e[j][k] whose tube maxima are interior: both carry the
// concave term -2·mid[j]² on the middle coordinate, so c[i][j][k] is
// concave in mid[j].
func newTubeFactors(rng *rand.Rand, p, q, r int) (*distArr, *distArr) {
	mid := sortedVec(rng, q, -1, 0)
	conc := make([]float64, q)
	for j, x := range mid {
		conc[j] = -2 * x * x
	}
	d := &distArr{v: sortedVec(rng, p, 0, 1), w: mid, col: conc}
	e := &distArr{v: mid, w: sortedVec(rng, r, 0, 1), row: conc}
	return d, e
}

// linkWeight is the M-link weight w(i, j) = f(x[j] - x[i] - span) over
// sorted node positions x, concave-quadrangle (Monge) because f is
// convex; span is the ideal link length x[n]/M.
type linkWeight struct {
	x    []float64
	span float64
}

func newLinkWeight(rng *rand.Rand, n, M int) *linkWeight {
	x := sortedVec(rng, n+1, 0, 1)
	x[0] = 0
	return &linkWeight{x: x, span: x[n] / float64(M)}
}

func (l *linkWeight) val(i, j int) float64 { return dist(l.x[j] - l.x[i] - l.span) }

// fn returns the weight as the program's LinkWeight function type,
// counting evaluations when cnt is set.
func (l *linkWeight) fn(cnt *atomic.Int64) func(i, j int) float64 {
	if cnt == nil {
		return l.val
	}
	return func(i, j int) float64 {
		cnt.Add(1)
		return l.val(i, j)
	}
}
