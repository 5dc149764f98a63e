package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"monge"
	"monge/internal/admit"
	"monge/internal/batch"
	"monge/internal/exec"
	"monge/internal/httpfront"
	"monge/internal/marray"
	"monge/internal/mindex"
	"monge/internal/minplus"
	"monge/internal/native"
	"monge/internal/obs"
	"monge/internal/pram"
	"monge/internal/serve"
	"monge/internal/smawk"
)

// The replays call each layer's public entry point on the same input,
// one layer below the other, so a layer's self time is the difference
// between adjacent entry points. Every layer's answer is checked
// against the oracle's or, below HTTP, against the verified HTTP answer.

// answer is a search result in one shape for every layer.
type answer struct {
	idx []int
	tj  [][]int
	tv  [][]float64
}

func (a answer) check(ref answer) error {
	if ref.tj != nil {
		return checkTube(a.tj, a.tv, ref.tj, ref.tv)
	}
	return checkIdx(a.idx, ref.idx)
}

// searchLayers runs q's search kind at the driver, native-kernel and
// sequential-SMAWK layers.
type searchLayers struct {
	drv *batch.Driver
	one *exec.Pool
}

func newSearchLayers() *searchLayers {
	d := batch.NewWithBackend(pram.CRCW, batch.BackendNative)
	d.SetMachineWorkers(1) // as each pool shard runs it
	return &searchLayers{drv: d, one: exec.NewPool(1)}
}

func (l *searchLayers) close() { l.drv.Close(); l.one.Close() }

func (l *searchLayers) batch(q serve.Query) (a answer) {
	switch q.Kind {
	case serve.RowMinima:
		a.idx = l.drv.RowMinima(q.A)
	case serve.StaircaseRowMinima:
		a.idx = l.drv.StaircaseRowMinima(q.A)
	default:
		a.tj, a.tv = l.drv.TubeMaxima(q.C)
	}
	return a
}

func (l *searchLayers) native(q serve.Query) (a answer) {
	ctx := context.Background()
	switch q.Kind {
	case serve.RowMinima:
		a.idx = native.RowMinima(ctx, l.one, q.A)
	case serve.StaircaseRowMinima:
		a.idx = native.StaircaseRowMinima(ctx, l.one, q.A)
	default:
		a.tj, a.tv = native.TubeMaxima(ctx, l.one, q.C)
	}
	return a
}

func smawkAnswer(q serve.Query) (a answer) {
	switch q.Kind {
	case serve.RowMinima:
		a.idx = smawk.RowMinima(q.A)
	case serve.StaircaseRowMinima:
		a.idx = smawk.StaircaseRowMinima(q.A)
	default:
		a.tj, a.tv = smawk.TubeMaxima(q.C)
	}
	return a
}

func resultAnswer(res serve.Result) (answer, error) {
	return answer{res.Idx, res.TubeJ, res.TubeV}, res.Err
}

// denseOf converts decoded JSON rows (null = +Inf) to a dense matrix.
func denseOf(rows [][]httpfront.Entry) *marray.Dense {
	conv := make([][]float64, len(rows))
	for i, r := range rows {
		conv[i] = make([]float64, len(r))
		for j, e := range r {
			conv[i][j] = float64(e)
		}
	}
	return marray.FromRows(conv)
}

// stairView gives a dense matrix with +Inf entries the Staircase
// interface, as the HTTP front does before building an index.
func stairView(d *marray.Dense) marray.Matrix {
	m, n := d.Rows(), d.Cols()
	bound := make([]int, m)
	blocked := false
	for i := range bound {
		for bound[i] < n && !math.IsInf(d.At(i, bound[i]), 1) {
			bound[i]++
		}
		blocked = blocked || bound[i] < n
	}
	if !blocked {
		return d
	}
	return marray.StairFunc{M: m, N: n, F: d.At, Bound: func(i int) int { return bound[i] }}
}

// queryOf builds the pool query of a decoded dense request.
func queryOf(qr *httpfront.QueryRequest) serve.Query {
	switch qr.Kind {
	case "row-minima":
		return serve.Query{Kind: serve.RowMinima, A: denseOf(qr.A)}
	case "staircase-row-minima":
		return serve.Query{Kind: serve.StaircaseRowMinima, A: denseOf(qr.A)}
	default:
		return serve.Query{Kind: serve.TubeMaxima, C: marray.Composite{D: denseOf(qr.D), E: denseOf(qr.E)}}
	}
}

// screen runs the sampled structural screen the handler runs.
func screen(q serve.Query) error {
	switch q.Kind {
	case serve.RowMinima:
		return marray.CheckMongeSampled(q.A)
	case serve.StaircaseRowMinima:
		return marray.CheckStaircaseMongeSampled(q.A)
	default:
		if err := marray.CheckMongeSampled(q.C.D); err != nil {
			return err
		}
		return marray.CheckMongeSampled(q.C.E)
	}
}

// replayServed replays the http-dense and http-index operations
// through an in-process server and then at every layer below it.
func replayServed(cfg config, r *replay, srv *inprocServer) error {
	var mu sync.Mutex
	handlerMS := map[int]float64{}
	hook := handlerHook(func(req *http.Request, s, e time.Time) {
		op, _ := strconv.Atoi(req.Header.Get(opHeader))
		if op == 0 {
			return
		}
		r.tr.record("httpfront.handler", "http.client", op, s, e)
		mu.Lock()
		handlerMS[op] = float64(e.Sub(s).Nanoseconds()) / 1e6
		mu.Unlock()
	})
	if r.tr != nil {
		srv.onHandler.Store(&hook)
		defer srv.onHandler.Store(nil)
	}
	handler := func(op int) float64 {
		mu.Lock()
		defer mu.Unlock()
		return handlerMS[op]
	}
	ctx := context.Background()
	front := srv.front()
	layers := newSearchLayers()
	defer layers.close()

	dcfg := cfg
	dcfg.workload = "http-dense"
	d := newServed(dcfg)
	d.base = srv.base
	defer d.client.CloseIdleConnections()
	var buf bytes.Buffer
	for _, q := range d.queries {
		for rep := 0; rep < replayReps; rep++ {
			op := r.op()
			var err error
			client := r.call("http.client", "", op, func() { err = d.postOp(q, op, &buf) })
			if err != nil {
				return fmt.Errorf("replaying %s: %w", q.kind, err)
			}
			r.check("http "+q.kind, q.check(buf.Bytes()))
			var ref queryResp
			r.check("http "+q.kind, json.Unmarshal(buf.Bytes(), &ref))
			want := answer{ref.Idx, ref.TubeJ, ref.TubeV}
			h := handler(op)
			r.add("httpfront.handler_ms.dense", h)
			r.add("httpfront.wire_ms.dense", client-h)
			r.add("httpfront.body_kb", float64(len(q.body))/1024)

			var qr httpfront.QueryRequest
			r.add("httpfront.decode_ms", r.call("httpfront.decode", "httpfront.handler", op, func() {
				dec := json.NewDecoder(bytes.NewReader(q.body))
				dec.DisallowUnknownFields()
				err = dec.Decode(&qr)
			}))
			if err != nil {
				return fmt.Errorf("decoding %s: %w", q.kind, err)
			}
			query := queryOf(&qr)
			r.add("marray.screen_ms", r.call("marray.screen", "httpfront.handler", op, func() { err = screen(query) }))
			r.check("screen "+q.kind, err)
			var res serve.Result
			r.call("admit.do", "httpfront.handler", op, func() { res = front.Do(ctx, admit.Request{Query: query}) })
			got, err := resultAnswer(res)
			r.check("admit.do "+q.kind, firstErr(err, got.check(want)))
			r.call("serve.submit", "admit.do", op, func() { res = submit(front.Pool(), query) })
			got, err = resultAnswer(res)
			r.check("serve.submit "+q.kind, firstErr(err, got.check(want)))
			r.call("batch.driver", "serve.submit", op, func() { got = layers.batch(query) })
			r.check("batch.driver "+q.kind, got.check(want))
			r.call("native", "batch.driver", op, func() { got = layers.native(query) })
			r.check("native "+q.kind, got.check(want))
			r.call("smawk", "native", op, func() { got = smawkAnswer(query) })
			r.check("smawk "+q.kind, got.check(want))
		}
	}

	icfg := cfg
	icfg.workload = "http-index"
	x := newServed(icfg)
	x.base = srv.base
	defer x.client.CloseIdleConnections()
	var ixs []*mindex.Index
	for _, m := range x.matrices {
		op := r.op()
		var err error
		r.call("http.client", "", op, func() { err = x.postOp(m, op, &buf) })
		if err != nil {
			return fmt.Errorf("registering index: %w", err)
		}
		var ir struct {
			ID string `json:"index_id"`
		}
		if err := json.Unmarshal(buf.Bytes(), &ir); err != nil {
			return err
		}
		x.ids = append(x.ids, ir.ID)
		var body httpfront.IndexRequest
		if err := json.Unmarshal(m.body, &body); err != nil {
			return err
		}
		a := stairView(denseOf(body.A))
		var ix *mindex.Index
		r.add("mindex.build_ms", r.call("mindex.build", "httpfront.handler", op, func() { ix = mindex.Build(a, mindex.Opts{}) }))
		r.add("mindex.bytes", float64(ix.Bytes()))
		ixs = append(ixs, ix)
	}
	for i, q := range x.indexRequests() {
		op := r.op()
		var err error
		client := r.call("http.client", "", op, func() { err = x.postOp(q, op, &buf) })
		if err != nil {
			return fmt.Errorf("replaying %s: %w", q.kind, err)
		}
		r.check("http "+q.kind, q.check(buf.Bytes()))
		h := handler(op)
		r.add("httpfront.handler_ms.index", h)
		r.add("httpfront.wire_ms.index", client-h)

		iq := x.qcycle[i]
		query := serve.Query{Kind: serve.RangeRowMinima, Index: ixs[iq.m], R1: iq.r1, R2: iq.r2}
		if iq.submax {
			query = serve.Query{Kind: serve.SubmatrixMax, Index: ixs[iq.m], R1: iq.r1, R2: iq.r2, C1: iq.c1, C2: iq.c2}
		}
		var res serve.Result
		r.add("admit.do_ms", r.call("admit.do", "httpfront.handler", op, func() { res = front.Do(ctx, admit.Request{Query: query}) }))
		r.check("admit.do "+q.kind, firstErr(res.Err, iq.checkResult(res.Pos, res.Idx)))
		var p mindex.Pos
		var idx []int
		us := 1000 * r.call("mindex.query", "admit.do", op, func() {
			if iq.submax {
				p = ixs[iq.m].SubmatrixMax(iq.r1, iq.r2, iq.c1, iq.c2)
			} else {
				idx = ixs[iq.m].RangeRowMinima(iq.r1, iq.r2)
			}
		})
		r.add("mindex.query_us", us)
		r.check("mindex.query "+q.kind, iq.checkResult(p, idx))
	}
	return nil
}

// checkResult compares a layer's index answer with the oracle's.
func (q indexQuery) checkResult(p mindex.Pos, idx []int) error {
	if q.submax {
		return checkPos(pos{p.Row, p.Col, p.Val}, q.want)
	}
	return checkIdx(idx, q.wantIdx)
}

func submit(p *serve.Pool, q serve.Query) serve.Result {
	t, err := p.Submit(q)
	if err != nil {
		return serve.Result{Err: err}
	}
	return t.Result()
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// replayLib replays the lib-implicit operations: each search kind
// through DriverPool.Do, the pool's Submit, a shard-like driver, the
// native fan-out driver and sequential SMAWK, counting the entries each
// evaluates; then the (min,+) engine and M-link solver.
func replayLib(cfg config, r *replay) {
	in := newLibInputs(cfg.seed, cfg.tiny)
	dp := newLibPool()
	defer dp.Close()
	layers := newSearchLayers()
	defer layers.close()
	fan := monge.NewBatchDriverBackend(monge.CRCW, monge.BackendNative)
	defer fan.Close()
	ctx := context.Background()

	kinds := []struct {
		name string
		q    func(cnt *atomic.Int64) serve.Query
		want answer
	}{
		{"row-minima", func(c *atomic.Int64) serve.Query {
			return serve.Query{Kind: serve.RowMinima, A: in.row.counted(c)}
		}, answer{idx: in.wantRow}},
		{"staircase", func(c *atomic.Int64) serve.Query {
			return serve.Query{Kind: serve.StaircaseRowMinima, A: in.stair.counted(c)}
		}, answer{idx: in.wantStair}},
		{"tube", func(c *atomic.Int64) serve.Query {
			return serve.Query{Kind: serve.TubeMaxima, C: marray.Composite{D: in.tubeD.counted(c), E: in.tubeE.counted(c)}}
		}, answer{tj: in.wantTubeJ, tv: in.wantTubeV}},
	}
	for _, k := range kinds {
		for rep := 0; rep < replayReps; rep++ {
			op := r.op()
			var pool, shard, fanout, seq atomic.Int64
			var res serve.Result
			r.add("serve.do_ms."+k.name, r.call("serve.do", "", op, func() {
				res = dp.Do(ctx, admit.Request{Query: k.q(&pool)})
			}))
			got, err := resultAnswer(res)
			r.check("DriverPool.Do "+k.name, firstErr(err, got.check(k.want)))
			q := k.q(&shard)
			sub := r.call("serve.submit", "serve.do", op, func() { res = submit(dp.Front().Pool(), q) })
			got, err = resultAnswer(res)
			r.check("serve.submit "+k.name, firstErr(err, got.check(k.want)))
			q = k.q(&shard)
			drv := r.call("batch.driver", "serve.submit", op, func() { got = layers.batch(q) })
			r.check("batch.driver "+k.name, got.check(k.want))
			r.add("serve.overhead_ms", sub-drv)
			q = k.q(&fanout)
			r.call("native.fanout", "", op, func() {
				switch q.Kind {
				case serve.RowMinima:
					got.idx, err = fan.RowMinima(q.A)
				case serve.StaircaseRowMinima:
					got.idx, err = fan.StaircaseRowMinima(q.A)
				default:
					got.tj, got.tv, err = fan.TubeMaxima(q.C)
				}
			})
			r.check("BatchDriver "+k.name, firstErr(err, got.check(k.want)))
			q = k.q(&seq)
			r.add("smawk.kernel_ms."+k.name, r.call("smawk", "batch.driver", op, func() { got = smawkAnswer(q) }))
			r.check("smawk "+k.name, got.check(k.want))
			if rep == 0 {
				r.set("smawk.evals_per_query."+k.name, float64(seq.Load()))
				r.set("serve.evals_over_smawk."+k.name, float64(pool.Load())/float64(seq.Load()))
				if k.name == "row-minima" {
					r.set("native.evals_over_smawk", float64(fanout.Load())/float64(seq.Load()))
				}
			}
		}
	}

	eng := minplus.New(batch.BackendNative)
	defer eng.Close()
	for rep := 0; rep < replayReps; rep++ {
		op := r.op()
		var cnt atomic.Int64
		var p *minplus.Product
		a, b := in.mpA.counted(&cnt), in.mpB.counted(&cnt)
		r.add("minplus.multiply_ms", r.call("minplus.multiply", "", op, func() { p = eng.Multiply(a, b) }))
		evals := cnt.Load()
		r.check("minplus.Multiply", checkProduct(p, in.wantMPV, in.wantMPW, true))
		var err error
		facade := r.call("monge.MinPlus", "", op, func() { p, err = monge.MinPlus(a, b) })
		r.check("monge.MinPlus", firstErr(err, checkProduct(p, in.wantMPV, in.wantMPW, false)))
		var res serve.Result
		pooled := r.call("serve.do", "", op, func() { res = dp.Do(ctx, monge.MinPlusRequest(a, b)) })
		r.check("DriverPool.Do minplus", firstErr(res.Err, checkProduct(res.Prod, in.wantMPV, in.wantMPW, false)))
		r.add("minplus.facade_over_pool", facade/pooled)
		if rep == 0 {
			r.set("minplus.evals_per_query", float64(evals))
			r.set("minplus.runs", float64(p.Runs()))
		}

		op = r.op()
		cnt.Store(0)
		w := in.link.fn(&cnt)
		var cost float64
		var path []int
		r.add("minplus.mlink_ms", r.call("minplus.mlink", "", op, func() { cost, path = eng.MLinkPath(in.sz.mlinkN, w, in.sz.mlinkM) }))
		if rep == 0 {
			r.set("minplus.mlink_evals", float64(cnt.Load()))
		}
		r.check("minplus.MLinkPath", checkMLink(in.sz.mlinkN, in.sz.mlinkM, in.link.val, cost, path, in.wantLink))
	}
	r.set("serve.imbalance", float64(dp.Stats().Imbalance))

	// One round of the workload's own script gives its evaluations per
	// operation.
	var cnt atomic.Int64
	lw := &libW{in: in, pool: dp}
	script := lw.script(&cnt, false)
	for _, o := range script {
		op := r.op()
		var err error
		r.call(o.kind, "", op, func() { err = o.do() })
		r.check("lib-implicit "+o.kind, err)
	}
	r.set("evals_per_query.lib-implicit", float64(cnt.Load())/float64(len(script)))
}

// replaySim replays the sim-tables round on fresh machines, reading
// each search's charged steps, work and link traffic, and the worker
// pool's loops and chunks from a process-wide observer.
func replaySim(cfg config, r *replay) {
	in := newSimInputs(cfg.seed, cfg.tiny)
	mach := newSimMachines(in.sz)
	o := obs.NewObserver()
	obs.SetGlobal(o)
	defer obs.SetGlobal(nil)
	var cnt atomic.Int64
	script := simScript(in, mach, &cnt)
	pramOf := map[string]*monge.PRAM{
		"pram-crcw-row-minima": mach.crcw, "pram-crew-row-minima": mach.crew,
		"pram-staircase": mach.stair, "pram-tube": mach.tube,
	}
	var pramNS, pramSteps, netNS, netSteps float64
	loops0, chunks0 := o.Pool().PoolLoops.Load(), o.Pool().PoolChunks.Load()
	for _, s := range script {
		op := r.op()
		var err error
		if p, ok := pramOf[s.kind]; ok {
			before := p.CostSnapshot()
			ms := r.call(s.kind, "", op, func() { err = s.do() })
			c := p.CostSnapshot().Sub(before)
			name := s.kind[len("pram-"):]
			r.set("pram.steps."+name, float64(c.Steps))
			r.set("pram.work."+name, float64(c.Work))
			pramNS += ms * 1e6
			pramSteps += float64(c.Steps)
		} else {
			net := s.kind[len("net-"):]
			m := mach.nets[net]
			t0, c0 := m.Time(), m.Comm()
			ms := r.call(s.kind, "", op, func() { err = s.do() })
			r.set("hypercube.steps."+net, float64(m.Time()-t0))
			r.set("hypercube.link_messages."+net, float64(m.Comm()-c0))
			netNS += ms * 1e6
			netSteps += float64(m.Time() - t0)
		}
		r.check("sim-tables "+s.kind, err)
	}
	n := float64(len(script))
	r.set("pram.ns_per_step", pramNS/pramSteps)
	r.set("hypercube.ns_per_step", netNS/netSteps)
	r.set("exec.loops_per_query", float64(o.Pool().PoolLoops.Load()-loops0)/n)
	r.set("exec.chunks_per_query", float64(o.Pool().PoolChunks.Load()-chunks0)/n)
	r.set("evals_per_query.sim-tables", float64(cnt.Load())/n)
}
