package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
)

// table is a small explicit array for the checker self-tests.
func table(rows [][]float64) entries {
	return func(i, j int) float64 { return rows[i][j] }
}

func TestRowMinimaCheckerFlagsWrongAnswers(t *testing.T) {
	inf := math.Inf(1)
	a := [][]float64{
		{3, 1, 1, 2},       // tie: the leftmost column 1 is the answer
		{5, 4, 2, 2},       // tie at columns 2 and 3
		{1, inf, inf, inf}, // staircase row with one finite entry
	}
	want := bruteRowMinima(3, 4, table(a))
	if err := checkIdx(want, []int{1, 2, 0}); err != nil {
		t.Fatalf("oracle is not leftmost: %v", err)
	}
	for name, got := range map[string][]int{
		"non-leftmost tie": {2, 2, 0},
		"shifted column":   {1, 3, 0},
		"short answer":     {1, 2},
	} {
		if checkIdx(got, want) == nil {
			t.Errorf("%s %v passed the check against %v", name, got, want)
		}
	}
}

func TestTubeCheckerFlagsWrongAnswers(t *testing.T) {
	d := table([][]float64{{0, 1, 1}, {2, 0, 0}})
	e := table([][]float64{{0, 0}, {1, 0}, {1, 0}})
	wantJ, wantV := bruteTubeMaxima(2, 3, 2, d, e)
	// (0,0): 0+0, 1+1, 1+1 -> j=1 (the smaller of the tied 1 and 2).
	if wantJ[0][0] != 1 || wantV[0][0] != 2 {
		t.Fatalf("oracle tube (0,0) = %d/%g, want 1/2", wantJ[0][0], wantV[0][0])
	}
	badJ := [][]int{{2, wantJ[0][1]}, wantJ[1]}
	if checkTube(badJ, wantV, wantJ, wantV) == nil {
		t.Error("a tie resolved to the larger middle index passed")
	}
	badV := [][]float64{{wantV[0][0] + 1, wantV[0][1]}, wantV[1]}
	if checkTube(wantJ, badV, wantJ, wantV) == nil {
		t.Error("a wrong tube value passed")
	}
	if err := checkTube(wantJ, wantV, wantJ, wantV); err != nil {
		t.Errorf("the oracle's own answer failed: %v", err)
	}
}

// fakeProduct is a product given by its witnesses, for the checks.
type fakeProduct struct {
	a, b entries
	wit  [][]int
}

func (p fakeProduct) Rows() int            { return len(p.wit) }
func (p fakeProduct) Cols() int            { return len(p.wit[0]) }
func (p fakeProduct) Witness(i, k int) int { return p.wit[i][k] }
func (p fakeProduct) At(i, k int) float64  { return p.a(i, p.wit[i][k]) + p.b(p.wit[i][k], k) }

func TestProductCheckerFlagsWrongWitness(t *testing.T) {
	a := table([][]float64{{0, 1, 4}, {4, 1, 0}})
	b := table([][]float64{{0, 1}, {0, 0}, {1, 0}})
	wantV, wantW := bruteMinPlus(2, 3, 2, a, b)
	// Row 0, col 1: 0+1, 1+0, 4+0 -> tie between j=0 and j=1; leftmost is 0.
	if wantW[0][1] != 0 || wantV[0][1] != 1 {
		t.Fatalf("oracle (0,1) = %d/%g, want 0/1", wantW[0][1], wantV[0][1])
	}
	if err := checkProduct(fakeProduct{a, b, wantW}, wantV, wantW, true); err != nil {
		t.Fatalf("the oracle's own product failed: %v", err)
	}
	wrong := [][]int{{wantW[0][0], 1}, wantW[1]} // the tied, non-leftmost witness
	if checkProduct(fakeProduct{a, b, wrong}, wantV, wantW, false) == nil {
		t.Error("a non-leftmost witness passed")
	}
	if checkProduct(nil, wantV, wantW, false) == nil {
		t.Error("a nil product passed")
	}
}

func TestMLinkCheckerFlagsWrongPaths(t *testing.T) {
	l := &linkWeight{x: []float64{0, 0.1, 0.35, 0.5, 0.8, 0.9, 1}, span: 1.0 / 3}
	n, M := 6, 3
	want := bruteMLinkCost(n, M, l.val)
	// The cheapest 3-link path by enumeration of every increasing path.
	best, bestPath := math.Inf(1), []int(nil)
	for i := 1; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c := l.val(0, i) + l.val(i, j) + l.val(j, n)
			if c < best {
				best, bestPath = c, []int{0, i, j, n}
			}
		}
	}
	if !near(best, want) {
		t.Fatalf("reference DP %g, enumeration %g", want, best)
	}
	if err := checkMLink(n, M, l.val, best, bestPath, want); err != nil {
		t.Fatalf("the optimal path failed: %v", err)
	}
	// Each malformed path is reported with its own summed weight as both
	// the cost and the reference, so only the property checks can
	// reject it.
	sum := func(p []int) float64 {
		c := 0.0
		for k := 1; k < len(p); k++ {
			c += l.val(p[k-1], p[k])
		}
		return c
	}
	for name, p := range map[string][]int{
		"M-1 links":      {0, bestPath[1], n},
		"M+1 links":      {0, 1, bestPath[1], bestPath[2], n},
		"not increasing": {0, bestPath[2], bestPath[1], n},
		"wrong end":      {0, bestPath[1], bestPath[2], n - 1},
	} {
		if checkMLink(n, M, l.val, sum(p), p, sum(p)) == nil {
			t.Errorf("%s %v passed", name, p)
		}
	}
	if checkMLink(n, M, l.val, best+1, bestPath, best+1) == nil {
		t.Error("a cost that is not the path's summed weight passed")
	}
	// A consistent path that is not the cheapest.
	other := []int{0, 1, 2, n}
	if c := l.val(0, 1) + l.val(1, 2) + l.val(2, n); !near(c, want) && checkMLink(n, M, l.val, c, other, want) == nil {
		t.Error("a suboptimal path passed")
	}
}

func TestSubmaxOracleAndChecker(t *testing.T) {
	inf := math.Inf(1)
	a := table([][]float64{
		{1, 5, 5},
		{5, 2, inf},
		{0, inf, inf},
	})
	if got := bruteSubmax(a, 0, 2, 0, 2); got != (pos{0, 1, 5}) {
		t.Errorf("lexicographically smallest maximum: got %v", got)
	}
	if got := bruteSubmax(a, 1, 2, 2, 2); got.Row != -1 || got.Col != -1 {
		t.Errorf("fully blocked rectangle: got %v", got)
	}
	if checkPos(pos{1, 0, 5}, pos{0, 1, 5}) == nil {
		t.Error("a later tied maximum passed")
	}
	if checkPos(pos{0, 1, 4}, pos{0, 1, 5}) == nil {
		t.Error("a wrong maximum value passed")
	}
}

// TestSmokeAllWorkloads runs every workload untraced and traced at tiny
// sizes, with the served workloads served in-process.
func TestSmokeAllWorkloads(t *testing.T) {
	bench := readBenchmark(t)
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w, seed: 7, seconds: 0.2, trace: traced, outdir: t.TempDir(), tiny: true}
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := bench.EndToEnd
			if traced {
				want = bench.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}
