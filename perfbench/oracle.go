package main

import (
	"fmt"
	"math"
)

// The oracles below are written apart from the program: plain
// exhaustive scans over the raw entry functions, sharing no code with
// internal/smawk, mindex, minplus or dp. Ties follow the program's
// documented contracts: leftmost row minima, smallest middle index for
// tube maxima, leftmost (min,+) witnesses, and the lexicographically
// smallest (row, col) for submatrix maxima, whose +Inf (blocked)
// entries never win.

// entries is a raw entry function of an m×n array.
type entries func(i, j int) float64

// bruteRowMinima returns each row's leftmost minimum column, -1 for a
// row with no finite entry.
func bruteRowMinima(m, n int, a entries) []int {
	out := make([]int, m)
	for i := range out {
		best, bv := -1, math.Inf(1)
		for j := 0; j < n; j++ {
			if v := a(i, j); v < bv {
				best, bv = j, v
			}
		}
		out[i] = best
	}
	return out
}

// bruteTubeMaxima returns, for every (i, k), the smallest j maximising
// d(i, j) + e(j, k), and that maximum.
func bruteTubeMaxima(p, q, r int, d, e entries) ([][]int, [][]float64) {
	arg := make([][]int, p)
	val := make([][]float64, p)
	for i := 0; i < p; i++ {
		arg[i] = make([]int, r)
		val[i] = make([]float64, r)
		for k := 0; k < r; k++ {
			best, bv := -1, math.Inf(-1)
			for j := 0; j < q; j++ {
				if v := d(i, j) + e(j, k); v > bv {
					best, bv = j, v
				}
			}
			arg[i][k], val[i][k] = best, bv
		}
	}
	return arg, val
}

// bruteMinPlus is the O(m·q·r) (min,+) product with leftmost witnesses
// (-1 and +Inf where no finite candidate exists).
func bruteMinPlus(m, q, r int, a, b entries) ([][]float64, [][]int) {
	val := make([][]float64, m)
	wit := make([][]int, m)
	for i := 0; i < m; i++ {
		val[i] = make([]float64, r)
		wit[i] = make([]int, r)
		for k := 0; k < r; k++ {
			best, bv := -1, math.Inf(1)
			for j := 0; j < q; j++ {
				if v := a(i, j) + b(j, k); v < bv {
					best, bv = j, v
				}
			}
			val[i][k], wit[i][k] = bv, best
		}
	}
	return val, wit
}

// bruteMLinkCost is the O(n²·M) layered DP: the cheapest path 0 -> n
// over exactly M forward links (+Inf when M > n).
func bruteMLinkCost(n, M int, w func(i, j int) float64) float64 {
	inf := math.Inf(1)
	prev := make([]float64, n+1)
	cur := make([]float64, n+1)
	for j := range prev {
		prev[j] = inf
	}
	prev[0] = 0
	for k := 1; k <= M; k++ {
		for j := range cur {
			cur[j] = inf
			for i := k - 1; i < j; i++ {
				if prev[i] < inf {
					if v := prev[i] + w(i, j); v < cur[j] {
						cur[j] = v
					}
				}
			}
		}
		prev, cur = cur, prev
	}
	return prev[n]
}

// pos is a submatrix-maximum answer.
type pos struct {
	Row, Col int
	Val      float64
}

// bruteSubmax scans rows r1..r2 × cols c1..c2 (inclusive) for the
// lexicographically smallest maximum finite entry; {-1, -1, -Inf} when
// every entry is blocked.
func bruteSubmax(a entries, r1, r2, c1, c2 int) pos {
	best := pos{-1, -1, math.Inf(-1)}
	for i := r1; i <= r2; i++ {
		for j := c1; j <= c2; j++ {
			if v := a(i, j); !math.IsInf(v, 1) && v > best.Val {
				best = pos{i, j, v}
			}
		}
	}
	return best
}

func checkIdx(got, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("answer has %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("row %d: column %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

func checkTube(gotJ [][]int, gotV [][]float64, wantJ [][]int, wantV [][]float64) error {
	if len(gotJ) != len(wantJ) || len(gotV) != len(wantV) {
		return fmt.Errorf("tube answer has %d/%d slices, want %d", len(gotJ), len(gotV), len(wantJ))
	}
	for i := range wantJ {
		if err := checkIdx(gotJ[i], wantJ[i]); err != nil {
			return fmt.Errorf("tube slice %d: %v", i, err)
		}
		if len(gotV[i]) != len(wantV[i]) {
			return fmt.Errorf("tube slice %d: %d values, want %d", i, len(gotV[i]), len(wantV[i]))
		}
		for k := range wantV[i] {
			if gotV[i][k] != wantV[i][k] {
				return fmt.Errorf("tube (%d,%d): value %g, want %g", i, k, gotV[i][k], wantV[i][k])
			}
		}
	}
	return nil
}

// product is the part of the program's (min,+) result the checks read.
type product interface {
	Rows() int
	Cols() int
	At(i, k int) float64
	Witness(i, k int) int
}

// checkProduct compares every witness, and with values set every value,
// against the naive product.
func checkProduct(p product, wantV [][]float64, wantW [][]int, values bool) error {
	if p == nil {
		return fmt.Errorf("nil product")
	}
	if p.Rows() != len(wantW) || (len(wantW) > 0 && p.Cols() != len(wantW[0])) {
		return fmt.Errorf("product is %dx%d, want %dx%d", p.Rows(), p.Cols(), len(wantW), len(wantW[0]))
	}
	for i := range wantW {
		for k, wj := range wantW[i] {
			if got := p.Witness(i, k); got != wj {
				return fmt.Errorf("product (%d,%d): witness %d, want %d", i, k, got, wj)
			}
			if values {
				if got := p.At(i, k); got != wantV[i][k] {
					return fmt.Errorf("product (%d,%d): value %g, want %g", i, k, got, wantV[i][k])
				}
			}
		}
	}
	return nil
}

// checkMLink checks an M-link answer by its properties — exactly M
// links, strictly increasing from 0 to n, weights summing to the
// reported cost — and the cost against the reference DP's.
func checkMLink(n, M int, w func(i, j int) float64, cost float64, path []int, want float64) error {
	if len(path) != M+1 {
		return fmt.Errorf("path has %d links, want %d", len(path)-1, M)
	}
	if path[0] != 0 || path[M] != n {
		return fmt.Errorf("path runs %d -> %d, want 0 -> %d", path[0], path[M], n)
	}
	sum := 0.0
	for k := 1; k <= M; k++ {
		if path[k] <= path[k-1] {
			return fmt.Errorf("path does not increase at link %d (%d -> %d)", k, path[k-1], path[k])
		}
		sum += w(path[k-1], path[k])
	}
	if !near(sum, cost) {
		return fmt.Errorf("path weights sum to %g, reported cost %g", sum, cost)
	}
	if !near(cost, want) {
		return fmt.Errorf("cost %g, reference DP %g", cost, want)
	}
	return nil
}

// near compares costs summed in different orders.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func checkPos(got, want pos) error {
	if got.Row != want.Row || got.Col != want.Col {
		return fmt.Errorf("maximum at (%d,%d), want (%d,%d)", got.Row, got.Col, want.Row, want.Col)
	}
	if want.Row >= 0 && got.Val != want.Val {
		return fmt.Errorf("maximum %g, want %g", got.Val, want.Val)
	}
	return nil
}
