package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"monge"
	"monge/internal/admit"
	"monge/internal/httpfront"
	"monge/internal/obs"
)

// denseSizes are the http-dense body shapes, each about 1.3 MB of JSON
// (the staircase body is larger, as a third of its entries are null).
type denseSizes struct{ rowN, stairN, tubeN int }

// indexSizes are the http-index shapes: matrices registered at set-up
// and the query cycle over them.
type indexSizes struct{ n, submax, ranges, rangeRows int }

func denseSizesFor(tiny bool) denseSizes {
	if tiny {
		return denseSizes{rowN: 16, stairN: 20, tubeN: 12}
	}
	return denseSizes{rowN: 256, stairN: 300, tubeN: 181}
}

func indexSizesFor(tiny bool) indexSizes {
	if tiny {
		return indexSizes{n: 40, submax: 4, ranges: 2, rangeRows: 3}
	}
	return indexSizes{n: 1024, submax: 24, ranges: 8, rangeRows: 8}
}

// request is one prepared POST: its body is encoded, and its answer
// checked by check, before anything is timed.
type request struct {
	kind  string
	path  string
	body  []byte
	check func(resp []byte) error
}

// served is a workload that drives the HTTP front: mongeserve as a
// child process (native backend, default observer), or the same
// handler in-process when no binary is given.
type served struct {
	cfg   config
	index bool

	// http-dense: the three query bodies. http-index: the matrices
	// registered at set-up, and the query cycle, built once their ids
	// are known.
	queries  []request
	matrices []request
	ids      []string
	qcycle   []indexQuery

	// want holds each query's verified response bytes; later responses
	// must match them byte for byte.
	want [][]byte

	base   string
	client *http.Client
	cmd    *exec.Cmd
	inproc *inprocServer
}

// indexQuery is one query of the http-index cycle with its answer.
type indexQuery struct {
	m              int // matrix index
	submax         bool
	r1, r2, c1, c2 int
	want           pos
	wantIdx        []int
}

func newServed(cfg config) *served {
	s := &served{cfg: cfg, index: cfg.workload == "http-index"}
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x4e7))
	if s.index {
		s.buildIndexInputs(rng)
	} else {
		s.buildDenseInputs(rng)
	}
	tr := &http.Transport{
		MaxConnsPerHost:     runtime.NumCPU(),
		MaxIdleConnsPerHost: runtime.NumCPU(),
		DisableCompression:  true,
	}
	s.client = &http.Client{Transport: tr, Timeout: 60 * time.Second}
	return s
}

// buildDenseInputs encodes the row-minima, staircase (null = +Inf) and
// tube-maxima bodies and computes their answers.
func (s *served) buildDenseInputs(rng *rand.Rand) {
	sz := denseSizesFor(s.cfg.tiny)
	row := newDistArr(rng, sz.rowN, sz.rowN)
	st := newStair(rng, sz.stairN, sz.stairN)
	d, e := newTubeFactors(rng, sz.tubeN, sz.tubeN, sz.tubeN)

	wantRow := bruteRowMinima(sz.rowN, sz.rowN, row.val)
	wantStair := bruteRowMinima(sz.stairN, sz.stairN, st.val)
	wantJ, wantV := bruteTubeMaxima(sz.tubeN, sz.tubeN, sz.tubeN, d.val, e.val)
	s.queries = []request{
		{"row-minima", "/v1/query", matrixBody("row-minima", "a", sz.rowN, sz.rowN, row.val),
			func(b []byte) error { return checkIdxResp(b, wantRow) }},
		{"staircase", "/v1/query", matrixBody("staircase-row-minima", "a", sz.stairN, sz.stairN, st.val),
			func(b []byte) error { return checkIdxResp(b, wantStair) }},
		{"tube", "/v1/query", tubeBody(sz.tubeN, d.val, e.val),
			func(b []byte) error {
				var r queryResp
				if err := json.Unmarshal(b, &r); err != nil {
					return err
				}
				return checkTube(r.TubeJ, r.TubeV, wantJ, wantV)
			}},
	}
}

// buildIndexInputs encodes the matrices registered at set-up — two
// Monge, one staircase — and computes the query cycle's answers.
func (s *served) buildIndexInputs(rng *rand.Rand) {
	sz := indexSizesFor(s.cfg.tiny)
	for m := 0; m < 3; m++ {
		var a entries
		if m == 2 {
			a = newStair(rng, sz.n, sz.n).val
		} else {
			a = newDistArr(rng, sz.n, sz.n).val
		}
		s.matrices = append(s.matrices, request{kind: "index", path: "/v1/index", body: matrixBody("", "a", sz.n, sz.n, a)})
		rowMin := bruteRowMinima(sz.n, sz.n, a)
		for q := 0; q < sz.submax; q++ {
			r1, r2 := span2(rng, sz.n, sz.n)
			c1, c2 := span2(rng, sz.n, sz.n)
			s.qcycle = append(s.qcycle, indexQuery{m: m, submax: true, r1: r1, r2: r2, c1: c1, c2: c2,
				want: bruteSubmax(a, r1, r2, c1, c2)})
		}
		for q := 0; q < sz.ranges; q++ {
			r1, r2 := span2(rng, sz.n, sz.rangeRows)
			s.qcycle = append(s.qcycle, indexQuery{m: m, r1: r1, r2: r2, wantIdx: rowMin[r1 : r2+1]})
		}
	}
	// Interleave the matrices and kinds so every stretch of the cycle
	// mixes them.
	rng.Shuffle(len(s.qcycle), func(i, j int) { s.qcycle[i], s.qcycle[j] = s.qcycle[j], s.qcycle[i] })
}

// span2 draws lo <= hi within [0, n) with hi-lo < maxLen.
func span2(rng *rand.Rand, n, maxLen int) (int, int) {
	lo := rng.Intn(n)
	hi := lo + rng.Intn(maxLen)
	if hi >= n {
		hi = n - 1
	}
	return lo, hi
}

// indexRequests builds the query bodies once the matrices' ids are known.
func (s *served) indexRequests() []request {
	out := make([]request, len(s.qcycle))
	for i, q := range s.qcycle {
		if q.submax {
			out[i] = request{"submax", "/v1/query",
				[]byte(fmt.Sprintf(`{"kind":"submax","index_id":%q,"r1":%d,"r2":%d,"c1":%d,"c2":%d}`, s.ids[q.m], q.r1, q.r2, q.c1, q.c2)),
				func(b []byte) error {
					var r queryResp
					if err := json.Unmarshal(b, &r); err != nil {
						return err
					}
					if r.Pos == nil {
						return errors.New("no pos in submax response")
					}
					got := pos{r.Pos.Row, r.Pos.Col, math.Inf(-1)}
					if r.Pos.Val != nil {
						got.Val = *r.Pos.Val
					}
					return checkPos(got, q.want)
				}}
		} else {
			out[i] = request{"range-row-minima", "/v1/query",
				[]byte(fmt.Sprintf(`{"kind":"range-row-minima","index_id":%q,"r1":%d,"r2":%d}`, s.ids[q.m], q.r1, q.r2)),
				func(b []byte) error { return checkIdxResp(b, q.wantIdx) }}
		}
	}
	return out
}

// queryResp mirrors the /v1/query answer in the benchmark's own types.
type queryResp struct {
	Idx   []int       `json:"idx"`
	TubeJ [][]int     `json:"tube_j"`
	TubeV [][]float64 `json:"tube_v"`
	Pos   *struct {
		Row int      `json:"row"`
		Col int      `json:"col"`
		Val *float64 `json:"val"`
	} `json:"pos"`
}

func checkIdxResp(b []byte, want []int) error {
	var r queryResp
	if err := json.Unmarshal(b, &r); err != nil {
		return err
	}
	return checkIdx(r.Idx, want)
}

// appendMatrix writes an m×n JSON array of arrays, +Inf as null.
func appendMatrix(b []byte, m, n int, a entries) []byte {
	b = append(b, '[')
	for i := 0; i < m; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j := 0; j < n; j++ {
			if j > 0 {
				b = append(b, ',')
			}
			if v := a(i, j); math.IsInf(v, 1) {
				b = append(b, "null"...)
			} else {
				b = strconv.AppendFloat(b, v, 'g', -1, 64)
			}
		}
		b = append(b, ']')
	}
	return append(b, ']')
}

// matrixBody encodes {"kind":kind,"<field>":[[...]]}; an empty kind is
// left out (the /v1/index body).
func matrixBody(kind, field string, m, n int, a entries) []byte {
	b := []byte("{")
	if kind != "" {
		b = append(b, `"kind":"`+kind+`",`...)
	}
	b = append(b, `"`+field+`":`...)
	return append(appendMatrix(b, m, n, a), '}')
}

func tubeBody(n int, d, e entries) []byte {
	b := []byte(`{"kind":"tube-maxima","d":`)
	b = appendMatrix(b, n, n, d)
	b = append(b, `,"e":`...)
	b = appendMatrix(b, n, n, e)
	return append(b, '}')
}

// post sends one prepared request and returns the response body in buf.
func (s *served) post(r request, buf *bytes.Buffer) error { return s.postOp(r, 0, buf) }

// opHeader carries a replayed operation's id to the handler's span.
const opHeader = "X-Bench-Op"

// postOp is post tagged with a replayed operation's id (0: untagged).
func (s *served) postOp(r request, op int, buf *bytes.Buffer) error {
	req, err := http.NewRequest(http.MethodPost, s.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if op > 0 {
		req.Header.Set(opHeader, strconv.Itoa(op))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", r.path, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return nil
}

// start is one set-up: start the server, wait until it answers,
// register the indexes (http-index), then send every distinct query
// once. The first set-up checks every answer against the oracle and
// keeps the response bytes; later set-ups must reproduce them.
func (s *served) start() error {
	if err := s.startServer(); err != nil {
		return err
	}
	var buf bytes.Buffer
	if s.index {
		var ids []string
		for _, m := range s.matrices {
			if err := s.post(m, &buf); err != nil {
				return fmt.Errorf("registering index: %w", err)
			}
			var ir struct {
				ID string `json:"index_id"`
			}
			if err := json.Unmarshal(buf.Bytes(), &ir); err != nil {
				return err
			}
			ids = append(ids, ir.ID)
		}
		if s.ids == nil {
			s.ids = ids
			s.queries = s.indexRequests()
		} else if fmt.Sprint(ids) != fmt.Sprint(s.ids) {
			return fmt.Errorf("index ids %v, first set-up had %v", ids, s.ids)
		}
	}
	first := s.want == nil
	for i, q := range s.queries {
		if err := s.post(q, &buf); err != nil {
			return fmt.Errorf("warm-up %s: %w", q.kind, err)
		}
		if first {
			if err := q.check(buf.Bytes()); err != nil {
				return fmt.Errorf("warm-up %s: %w", q.kind, err)
			}
			s.want = append(s.want, append([]byte(nil), buf.Bytes()...))
		} else if !bytes.Equal(buf.Bytes(), s.want[i]) {
			return fmt.Errorf("warm-up %s: answer differs from the first set-up's", q.kind)
		}
	}
	return nil
}

// clients returns nproc clients, each posting the whole query list per
// round; a response must equal the verified one byte for byte.
func (s *served) clients() [][]op {
	out := make([][]op, runtime.NumCPU())
	for c := range out {
		buf := new(bytes.Buffer)
		for i, q := range s.queries {
			out[c] = append(out[c], op{q.kind, func() error {
				if err := s.post(q, buf); err != nil {
					return err
				}
				if !bytes.Equal(buf.Bytes(), s.want[i]) {
					return errors.New("answer differs from the verified one")
				}
				return nil
			}})
		}
	}
	return out
}

func (s *served) pid() int {
	if s.cmd != nil {
		return s.cmd.Process.Pid
	}
	return os.Getpid()
}

func (s *served) peakRSS() (float64, error) { return peakRSSMB(s.pid()) }

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (s *served) startServer() error {
	if s.cfg.server == "" {
		srv, err := startInproc()
		if err != nil {
			return err
		}
		s.inproc, s.base = srv, srv.base
		return nil
	}
	port, err := freePort()
	if err != nil {
		return err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	s.cmd = exec.Command(s.cfg.server, "-addr", addr, "-backend", "native")
	s.cmd.Stdout, s.cmd.Stderr = io.Discard, io.Discard
	if err := s.cmd.Start(); err != nil {
		s.cmd = nil
		return fmt.Errorf("starting %s: %w", s.cfg.server, err)
	}
	s.base = "http://" + addr
	for deadline := time.Now().Add(20 * time.Second); ; {
		resp, err := s.client.Get(s.base + "/v1/stats")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s did not answer: %v", addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the server down (SIGTERM drains the child; a stuck child
// is killed) and waits until it has exited.
func (s *served) stop() {
	s.client.CloseIdleConnections()
	if s.inproc != nil {
		s.inproc.close()
		s.inproc = nil
	}
	if s.cmd == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
	s.cmd = nil
}

// inprocServer is the mongeserve stack — native DriverPool, default
// admission front, httpfront handler, process-wide observer — served
// from this process over loopback. onHandler, when set, sees every
// request's handler time.
type inprocServer struct {
	base      string
	pool      *monge.DriverPool
	srv       *http.Server
	done      chan struct{}
	onHandler atomic.Pointer[handlerHook]
}

// handlerHook observes one request's handler time.
type handlerHook func(r *http.Request, start, end time.Time)

func startInproc() (*inprocServer, error) {
	obs.SetGlobal(obs.NewObserver())
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &inprocServer{
		base: "http://" + l.Addr().String(),
		pool: monge.NewDriverPoolOpts(monge.CRCW, monge.PoolOptions{Backend: monge.BackendNative}),
		done: make(chan struct{}),
	}
	h := httpfront.New(s.pool.Front()).Handler()
	s.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		if f := s.onHandler.Load(); f != nil {
			(*f)(r, t0, time.Now())
		}
	})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(l)
	}()
	return s, nil
}

func (s *inprocServer) front() *admit.Front { return s.pool.Front() }

func (s *inprocServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx)
	<-s.done
	s.pool.Close()
}
