package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"treeserver/internal/cluster"
	"treeserver/internal/forest"
	"treeserver/internal/infer"
	"treeserver/internal/model"
	"treeserver/internal/obs"
	"treeserver/internal/registry"
	"treeserver/internal/serve"
)

const (
	modelName = "higgs"
	bulkRows  = 1024
	// bulkEvery is the request mix: one batch-1024 request in 16.
	bulkEvery = 16
	// missingRate is the share of request cells sent missing (omitted,
	// null or "NA").
	missingRate = 0.03
	smallBodies = 256
	bulkBodies  = 8
	// serveSetups is how many times a run builds the serving stack; set-up
	// time is their median.
	serveSetups = 3
)

// serveEnv is one serving stack: the trained forest behind a registry and a
// loopback listener.
type serveEnv struct {
	file  *model.File
	reg   *registry.Registry
	plain *serve.Server // no telemetry: the end-to-end numbers come from it
	url   string        // predict endpoint of plain
	// Traced runs only: the same registry served WithObs.
	turl string
	obs  *obs.Registry
	srvs []*http.Server
	wg   sync.WaitGroup
}

// setupServe trains the forest-exact forest on a fresh cluster, saves and
// reloads it, compiles it into a registry and starts the listener.
func setupServe(seed int64, traced bool) (*serveEnv, error) {
	tbl := forestTable(seed)
	c, err := cluster.NewInProcess(tbl, clusterOptions(nil)...)
	if err != nil {
		return nil, err
	}
	trees, err := c.Train(forestSpecs(tbl, seed))
	c.Close()
	if err != nil {
		return nil, fmt.Errorf("training the served forest: %w", err)
	}
	schema := cluster.SchemaOf(tbl)
	f := &forest.Forest{Trees: trees, Task: schema.Task, NumClasses: schema.NumClasses}
	var buf bytes.Buffer
	if err := model.SaveForest(&buf, modelName, f, model.SchemaOf(tbl)); err != nil {
		return nil, fmt.Errorf("saving model: %w", err)
	}
	mf, err := model.Load(&buf)
	if err != nil {
		return nil, fmt.Errorf("loading model: %w", err)
	}
	env := &serveEnv{file: mf, reg: registry.New()}
	if _, err := env.reg.Load(modelName, mf, "perfbench"); err != nil {
		return nil, err
	}
	if _, err := env.reg.Activate(modelName, 0); err != nil {
		return nil, err
	}
	env.plain = serve.New(env.reg)
	if env.url, err = env.listen(env.plain); err != nil {
		env.close()
		return nil, err
	}
	if traced {
		env.obs = obs.NewRegistry()
		if env.turl, err = env.listen(serve.New(env.reg, serve.WithObs(env.obs))); err != nil {
			env.close()
			return nil, err
		}
	}
	return env, nil
}

// listen serves h on a fresh loopback port and returns its predict URL.
func (e *serveEnv) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	e.srvs = append(e.srvs, srv)
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed once close runs
	}()
	return "http://" + ln.Addr().String() + "/v1/models/" + modelName + "/predict", nil
}

// close stops the listeners and waits for their goroutines.
func (e *serveEnv) close() {
	for _, s := range e.srvs {
		_ = s.Close()
	}
	e.wg.Wait()
}

// requests holds the request bodies of a run and the response each must
// receive.
type requests struct {
	small, bulk [][]byte
	rows        [][]map[string]string // per body, the rows as ParseRows takes them
	// want[i] is the verified response to body i (small bodies first).
	want [][]byte
}

func (q *requests) body(bulk bool, i int) ([]byte, int) {
	if bulk {
		return q.bulk[i], len(q.small) + i
	}
	return q.small[i], i
}

// makeRequests draws request rows from the training distribution: rows of
// the training table, with missingRate of the cells sent missing. The set
// is all numeric, so no cell carries an unseen categorical level.
func makeRequests(seed int64, names []string) *requests {
	src := forestTable(seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	q := &requests{}
	mk := func(n int) []byte {
		var b bytes.Buffer
		rows := make([]map[string]string, n)
		b.WriteString(`{"rows":[`)
		for i := range rows {
			r := rng.Intn(src.NumRows())
			row := map[string]string{}
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteByte('{')
			first := true
			for _, name := range names {
				col := src.ColumnByName(name)
				var cell string
				switch u := rng.Float64(); {
				case u < missingRate/3: // omitted
					continue
				case u < 2*missingRate/3:
					cell = "null"
				case u < missingRate:
					cell = `"NA"`
				default:
					v := strconv.FormatFloat(col.Float(r), 'g', -1, 64)
					cell = v
					row[name] = v
				}
				if !first {
					b.WriteByte(',')
				}
				first = false
				b.WriteString(strconv.Quote(name))
				b.WriteByte(':')
				b.WriteString(cell)
			}
			b.WriteByte('}')
			rows[i] = row
		}
		b.WriteString(`]}`)
		q.rows = append(q.rows, rows)
		return b.Bytes()
	}
	for i := 0; i < smallBodies; i++ {
		q.small = append(q.small, mk(1))
	}
	for i := 0; i < bulkBodies; i++ {
		q.bulk = append(q.bulk, mk(bulkRows))
	}
	return q
}

// predictResponse is the /v1 predict response shape.
type predictResponse struct {
	Model       string             `json:"model"`
	Predictions []model.Prediction `json:"predictions"`
}

// checkResponse verifies a response body against model.File.Predict on the
// same rows: every class and every PMF entry must be equal.
func checkResponse(mf *model.File, rows []map[string]string, body []byte) error {
	tbl, err := mf.Schema.ParseRows(rows)
	if err != nil {
		return fmt.Errorf("parsing rows for the oracle: %w", err)
	}
	want := mf.Predict(tbl)
	var got predictResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if got.Model != modelName || len(got.Predictions) != len(want) {
		return fmt.Errorf("response for model %q with %d predictions, want %q with %d",
			got.Model, len(got.Predictions), modelName, len(want))
	}
	for i, w := range want {
		g := got.Predictions[i]
		if g.Class != w.Class || len(g.PMF) != len(w.PMF) {
			return fmt.Errorf("row %d: class %q, want %q", i, g.Class, w.Class)
		}
		for j := range w.PMF {
			if g.PMF[j] != w.PMF[j] {
				return fmt.Errorf("row %d: pmf[%d] = %v, want %v", i, j, g.PMF[j], w.PMF[j])
			}
		}
	}
	return nil
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns,
			DisableCompression: true,
		},
		Timeout: 30 * time.Second,
	}
}

// loadClient is the load generator's side of the wire: nproc keep-alive
// connections shared by both request classes, so a batch-1 request can wait
// behind bulk ones, as on a server whose few connections are all busy.
type loadClient struct {
	url   string
	conns int
	c     *http.Client
}

func newLoadClient(url string) *loadClient {
	n := runtime.NumCPU()
	return &loadClient{url: url, conns: n, c: newClient(n)}
}

func (lc *loadClient) close() { lc.c.CloseIdleConnections() }

func post(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, error) {
	var buf bytes.Buffer
	status, err := postInto(ctx, c, url, body, &buf)
	return status, buf.Bytes(), err
}

// postInto sends body and reads the response into buf, which the load
// generator's senders reuse so the client adds little garbage of its own.
func postInto(ctx context.Context, c *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// verify sends every body once, checks each response against the oracle
// and keeps it as the expected bytes for the timed phases.
func (q *requests) verify(env *serveEnv, c *http.Client, url string) error {
	all := append(append([][]byte(nil), q.small...), q.bulk...)
	q.want = make([][]byte, len(all))
	for i, b := range all {
		status, resp, err := post(context.Background(), c, url, b)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm-up request %d: status %d: %s", i, status, resp)
		}
		if err := checkResponse(env.file, q.rows[i], resp); err != nil {
			return fmt.Errorf("warm-up request %d: %w", i, err)
		}
		q.want[i] = resp
	}
	q.rows = nil // only the verification needs the rows
	return nil
}

// arrival is one scheduled request of an open-loop phase.
type arrival struct {
	due  time.Duration // offset from the phase start
	bulk bool
	body int
}

// poissonSchedule draws arrivals at rate per second for d, with
// exponential gaps and uniformly chosen bodies. Every bulkEvery-th arrival
// is a bulk request: the mix is exact, so a run's figures do not hinge on
// how many bulk requests happened to cluster.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []arrival {
	var out []arrival
	var t float64
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		a := arrival{due: due, bulk: len(out)%bulkEvery == bulkEvery-1}
		if a.bulk {
			a.body = rng.Intn(bulkBodies)
		} else {
			a.body = rng.Intn(smallBodies)
		}
		out = append(out, a)
	}
}

// phaseResult is what one open-loop phase measured.
type phaseResult struct {
	Rate     float64 `json:"rate_rps"`
	Sent     int     `json:"sent"`
	Failed   int     `json:"failed"`
	SmallP50 float64 `json:"small_p50_ms"`
	SmallP99 float64 `json:"small_p99_ms"` // median of per-second p99s
	// SmallP99Phase is p99 over the whole phase.
	SmallP99Phase float64 `json:"small_p99_phase_ms"`
	BulkP50       float64 `json:"bulk_p50_ms"`
	BulkP90       float64 `json:"bulk_p90_ms"`
	// CPUPerReq is the process's CPU time over the phase, server and load
	// generator together, per request sent.
	CPUPerReq  float64   `json:"cpu_ms_per_request"`
	LagP99     float64   `json:"lag_ms_p99"`
	BacklogMax int       `json:"backlog_max"`
	Growing    bool      `json:"backlog_growing"`
	HeapMB     []float64 `json:"heap_mb,omitempty"`
	small      []float64
	bulk       []float64
	errs       []error
}

// runPhase sends the schedule open-loop: a generator goroutine releases each
// request at its due time into a queue that one sender per connection
// drains, and every latency is timed from the due time, so a stall delays
// the requests behind it too. Responses must equal the verified bytes.
func runPhase(lc *loadClient, q *requests, sched []arrival, rate float64, tr *tracer, heap *heapSampler) phaseResult {
	n := len(sched)
	lat := make([]float64, n)
	errs := make([]error, n)
	lag := make([]float64, n)
	backlog := make([]int, n)
	queue := make(chan int, n) // sized to the number of sends: the generator never blocks
	var wg sync.WaitGroup
	cpu0, start := cpuTime(), time.Now()
	send := func() {
		defer wg.Done()
		var buf bytes.Buffer
		for i := range queue {
			a := sched[i]
			body, key := q.body(a.bulk, a.body)
			t0 := time.Now()
			status, err := postInto(context.Background(), lc.c, lc.url, body, &buf)
			done := time.Now()
			resp := buf.Bytes()
			switch {
			case err != nil:
			case status != http.StatusOK:
				err = fmt.Errorf("status %d: %.200s", status, resp)
			case !bytes.Equal(resp, q.want[key]):
				err = fmt.Errorf("response to body %d differs from its verified response", key)
			}
			errs[i] = err
			lat[i] = ms(done.Sub(start.Add(a.due)))
			if tr != nil {
				name := "http.predict.b1"
				if a.bulk {
					name = "http.predict.b1024"
				}
				tr.add(name, 0, int64(i+1), t0, done)
			}
		}
	}
	for w := 0; w < lc.conns; w++ {
		wg.Add(1)
		go send()
	}
	var windows []float64
	nextWindow := time.Second
	for i, a := range sched {
		if d := time.Until(start.Add(a.due)); d > 0 {
			time.Sleep(d)
		}
		now := time.Since(start)
		lag[i] = ms(now - a.due)
		backlog[i] = len(queue)
		queue <- i
		if heap != nil && now >= nextWindow {
			windows = append(windows, heap.reset())
			nextWindow += time.Second
		}
	}
	close(queue)
	wg.Wait()

	res := phaseResult{Rate: rate, Sent: n, HeapMB: windows, CPUPerReq: ms(cpuTime()-cpu0) / float64(n)}
	var win [][]float64 // small latencies per second of due time
	for i, a := range sched {
		if errs[i] != nil {
			res.Failed++
			res.errs = append(res.errs, errs[i])
			continue
		}
		if a.bulk {
			res.bulk = append(res.bulk, lat[i])
			continue
		}
		res.small = append(res.small, lat[i])
		w := int(a.due / time.Second)
		for len(win) <= w {
			win = append(win, nil)
		}
		win[w] = append(win[w], lat[i])
	}
	// p99 is read per one-second window and the median window reported, so
	// one stall (a collection, a noisy neighbour) moves one window, not the
	// phase's figure.
	var p99s []float64
	for _, w := range win {
		p99s = append(p99s, quantile(w, 0.99))
	}
	res.SmallP50, res.SmallP99 = quantile(res.small, 0.5), median(p99s)
	res.SmallP99Phase = quantile(res.small, 0.99)
	res.BulkP50, res.BulkP90 = quantile(res.bulk, 0.5), quantile(res.bulk, 0.9)
	res.LagP99 = quantile(lag, 0.99)
	for _, b := range backlog {
		res.BacklogMax = max(res.BacklogMax, b)
	}
	res.Growing = growing(sched, backlog, lc.conns)
	return res
}

// Load design of serve-mixed. The latency metrics are read at refRate,
// where batch-1 and bulk requests meet in the server without saturating it;
// the ladder's fixed rates bracket the rate at which batch-1 p99 crosses
// latencyLimit, which gives max_rate_rps.
var (
	refRate = 250.0
	ladder  = []float64{800, 1200, 1600, 2000}
)

const (
	// latencyLimit is the batch-1 p99 a rate must meet to count towards
	// max_rate_rps: a batch-1 request may wait behind about three bulk
	// requests (~15 ms each on a two-core host) and no more.
	latencyLimit = 50.0 // ms
	// lagLimit bounds the generator's own p99 lateness. Sharing two cores
	// with the server, its wake-ups can slip by one 10 ms preemption
	// quantum of the Go scheduler; twice that means it no longer keeps its
	// schedule, and the phase is rejected.
	lagLimit = 20.0 // ms
	// phaseTries bounds the re-runs of a rejected reference phase before
	// the whole run is rejected.
	phaseTries = 3
)

// measurePhase runs a phase, re-running it while its generator lags.
func measurePhase(lc *loadClient, q *requests, rng *rand.Rand, rate float64, d time.Duration, tr *tracer, heap *heapSampler) (phaseResult, error) {
	for try := 0; try < phaseTries; try++ {
		settle()
		if heap != nil {
			heap.reset()
		}
		res := runPhase(lc, q, poissonSchedule(rng, rate, d), rate, tr, heap)
		if res.LagP99 <= lagLimit {
			return res, nil
		}
		fmt.Fprintf(os.Stderr, "perfbench: phase at %.0f/s rejected: generator p99 lag %.2f ms > %.1f ms\n", rate, res.LagP99, lagLimit)
	}
	return phaseResult{}, fmt.Errorf("phase at %.0f/s: load generator fell behind its schedule %d times", rate, phaseTries)
}

// maxRate estimates the highest rate at which batch-1 p99 meets
// latencyLimit. Every phase is a fixed rate; a phase with a failed request,
// a growing backlog or a lagging generator caps the estimate at its rate.
// Over the other phases log(p99) is fitted linearly in the rate by least
// squares, and the rate where the fit crosses the limit is returned, never
// beyond the cap nor more than a quarter past the highest rate measured.
// The fit uses every phase, so one noisy phase moves it less than it would
// move an interpolation between two neighbours.
func maxRate(phases []phaseResult) float64 {
	limit := math.Inf(1)
	var xs, ys []float64
	var top float64
	for _, p := range phases {
		if p.Failed > 0 || p.Growing || p.LagP99 > lagLimit {
			limit = math.Min(limit, p.Rate)
			continue
		}
		xs, ys = append(xs, p.Rate), append(ys, math.Log(p.SmallP99))
		top = math.Max(top, p.Rate)
	}
	limit = math.Min(limit, 1.25*top)
	if len(xs) < 2 {
		return math.Min(limit, top)
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(len(xs))
	my /= float64(len(xs))
	var sxy, sxx float64
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
		sxx += (xs[i] - mx) * (xs[i] - mx)
	}
	slope := sxy / sxx
	if slope <= 0 {
		return limit
	}
	cross := mx + (math.Log(latencyLimit)-my)/slope
	return math.Max(0, math.Min(cross, limit))
}

func runServeMixed(cfg runConfig, r *result) error {
	var setups []float64
	var env *serveEnv
	for i := 0; i < serveSetups; i++ {
		if env != nil {
			env.close()
		}
		settle()
		t0 := time.Now()
		e, err := setupServe(cfg.seed, cfg.trace)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		env = e
	}
	defer env.close()
	q := makeRequests(cfg.seed, env.file.Schema.FeatureNames())
	lc := newLoadClient(env.url)
	defer lc.close()
	r.op(q.verify(env, lc.c, env.url))
	rng := rand.New(rand.NewSource(cfg.seed))
	count := func(p phaseResult) {
		for i := len(p.errs); i < p.Sent; i++ {
			r.op(nil)
		}
		for _, err := range p.errs {
			r.op(err)
		}
	}
	// Warm the connections and pools, untimed.
	warm, err := measurePhase(lc, q, rng, refRate, time.Second, nil, nil)
	if err != nil {
		return err
	}
	count(warm)

	heap := startHeapSampler(5 * time.Millisecond)
	refLen := cfg.seconds * 2 / 3
	ref, err := measurePhase(lc, q, rng, refRate, refLen, nil, heap)
	heap.close()
	if err != nil {
		return err
	}
	count(ref)
	r.Details["reference"] = ref
	r.Details["setup_s"] = setups
	if cfg.trace {
		// The same phase against the telemetry-enabled server, with a span
		// per request, gives the serve counters and the tracing overhead.
		before := env.obs.Snapshot().Serve
		tlc := newLoadClient(env.turl)
		defer tlc.close()
		traced, err := measurePhase(tlc, q, rng, refRate, refLen, cfg.tracer, nil)
		if err != nil {
			return err
		}
		count(traced)
		after := env.obs.Snapshot().Serve
		r.Details["traced_reference"] = traced
		r.set("obs.trace_overhead_ratio", ratio(traced.SmallP50, ref.SmallP50), len(ref.small)+len(traced.small))
		r.set("serve.sheds", float64(after.Sheds-before.Sheds), traced.Sent)
		r.set("serve.deadline_exceeded", float64(after.DeadlineExceeded-before.DeadlineExceeded), traced.Sent)
		r.set("loadgen.lag_ms_p99", ref.LagP99, ref.Sent)
		r.set("loadgen.backlog_max", float64(ref.BacklogMax), ref.Sent)
		r.set("loadgen.sent", float64(ref.Sent), 1)
		naLayers(r, "serve-mixed trains only during set-up", "split.", "dataset.", "core.", "cluster.", "task.", "loadbal.", "transport.", "gbt.")
		return reportServeLayers(cfg.tracer, r, env, q)
	}

	step := (cfg.seconds - refLen) / time.Duration(len(ladder))
	var steps []phaseResult
	for _, rate := range ladder {
		// A ladder phase is not re-run: a generator that cannot keep up at
		// this rate means the process has no CPU left for it, so the rate
		// fails.
		settle()
		p := runPhase(lc, q, poissonSchedule(rng, rate, step), rate, nil, nil)
		count(p)
		steps = append(steps, p)
	}
	r.Details["ladder"] = steps
	r.Details["latency_limit_ms"] = latencyLimit
	r.set("setup_s", median(setups), len(setups))
	r.set("peak_heap_mb", median(ref.HeapMB), len(ref.HeapMB))
	r.set("latency_p50_ms", ref.SmallP50, len(ref.small))
	r.set("cpu_ms_per_op", ref.CPUPerReq, ref.Sent)
	r.set("small_p99_ms", ref.SmallP99, len(ref.small))
	r.set("bulk_p50_ms", ref.BulkP50, len(ref.bulk))
	r.set("bulk_p90_ms", ref.BulkP90, len(ref.bulk))
	r.set("max_rate_rps", maxRate(append([]phaseResult{ref}, steps...)), len(steps)+1)
	return nil
}

// discardRW is a ResponseWriter that keeps only the status, so timing
// Server.ServeHTTP measures the handler and not a recorder.
type discardRW struct {
	h    http.Header
	code int
}

func (d *discardRW) Header() http.Header         { return d.h }
func (d *discardRW) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardRW) WriteHeader(code int)        { d.code = code }

// reportServeLayers times the infer, serve and registry calls directly on
// the workload's own request bodies, three passes each, median of passes.
func reportServeLayers(tr *tracer, r *result, env *serveEnv, q *requests) error {
	var compile []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := infer.Compile(env.file); err != nil {
			return fmt.Errorf("compile: %w", err)
		}
		d := time.Since(t0)
		tr.add("infer.Compile", 0, 0, t0, t0.Add(d))
		compile = append(compile, d.Seconds())
	}
	r.set("infer.compile_s", median(compile), len(compile))

	v, ok := env.reg.Active(modelName)
	if !ok {
		return fmt.Errorf("model %s has no active version", modelName)
	}
	m := v.Compiled
	for _, c := range []struct {
		suffix string
		bodies [][]byte
		rows   int
	}{{"b1", q.small, 1}, {"b1024", q.bulk, bulkRows}} {
		var decode, predict, handler []float64
		block, res := m.GetBlock(), m.GetResult()
		w := &discardRW{h: http.Header{}}
		for pass := 0; pass < 3; pass++ {
			var dd, pd time.Duration
			for _, body := range c.bodies {
				block.Reset()
				t0 := time.Now()
				if _, err := m.DecodeRequest(block, body, 0); err != nil {
					return fmt.Errorf("decode: %w", err)
				}
				t1 := time.Now()
				m.Predict(block, res, 0)
				t2 := time.Now()
				dd, pd = dd+t1.Sub(t0), pd+t2.Sub(t1)
				tr.add("infer.Model.DecodeRequest."+c.suffix, 0, 0, t0, t1)
				tr.add("infer.Model.Predict."+c.suffix, 0, 0, t1, t2)

				req, err := http.NewRequest(http.MethodPost, "/v1/models/"+modelName+"/predict", bytes.NewReader(body))
				if err != nil {
					return err
				}
				t3 := time.Now()
				env.plain.ServeHTTP(w, req)
				d := time.Since(t3)
				tr.add("serve.Server.ServeHTTP."+c.suffix, 0, 0, t3, t3.Add(d))
				if w.code != http.StatusOK {
					return fmt.Errorf("handler returned %d", w.code)
				}
				if pass > 0 {
					handler = append(handler, float64(d.Nanoseconds())/1e3)
				}
			}
			n := float64(len(c.bodies) * c.rows)
			if pass > 0 { // the first pass warms the pools
				decode = append(decode, float64(dd.Nanoseconds())/n)
				predict = append(predict, float64(pd.Nanoseconds())/n)
			}
		}
		m.PutBlock(block)
		m.PutResult(res)
		r.set("infer.decode_ns_per_row."+c.suffix, median(decode), len(decode))
		r.set("infer.predict_ns_per_row."+c.suffix, median(predict), len(predict))
		r.set("serve.handler_us."+c.suffix, median(handler), len(handler))
	}

	const routes = 100000
	var route []float64
	for pass := 0; pass < 3; pass++ {
		t0 := time.Now()
		for i := 0; i < routes; i++ {
			env.reg.Route(modelName, uint64(i))
		}
		d := time.Since(t0)
		tr.add("registry.Route", 0, 0, t0, t0.Add(d))
		route = append(route, float64(d.Nanoseconds())/routes)
	}
	r.set("registry.route_ns", median(route), len(route))
	return nil
}

// growing reports whether the queue of due, unsent requests grew over the
// phase: the least-squares slope of the backlog against due time, taken
// over the phase, would add more than four requests per connection.
func growing(sched []arrival, backlog []int, conns int) bool {
	n := float64(len(sched))
	if n < 2 {
		return false
	}
	var mx, my float64
	for i, a := range sched {
		mx += a.due.Seconds()
		my += float64(backlog[i])
	}
	mx, my = mx/n, my/n
	var sxy, sxx float64
	for i, a := range sched {
		dx := a.due.Seconds() - mx
		sxy += dx * (float64(backlog[i]) - my)
		sxx += dx * dx
	}
	if sxx == 0 {
		return false
	}
	span := sched[len(sched)-1].due.Seconds() - sched[0].due.Seconds()
	return sxy/sxx*span > float64(4*conns)
}
