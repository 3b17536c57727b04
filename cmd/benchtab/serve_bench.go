package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"treeserver/internal/cluster"
	"treeserver/internal/core"
	"treeserver/internal/forest"
	"treeserver/internal/infer"
	"treeserver/internal/model"
	"treeserver/internal/registry"
	"treeserver/internal/serve"
	"treeserver/internal/synth"
)

// discardRW is the cheapest possible ResponseWriter: headers land in a reused
// map, bodies in the void. It keeps the handler A/B free of recorder allocs.
type discardRW struct {
	h    http.Header
	code int
}

func (d *discardRW) Header() http.Header         { return d.h }
func (d *discardRW) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardRW) WriteHeader(code int)        { d.code = code }

// serveCalls is how many requests one repetition of a serving arm scores:
// 400, or fewer at large batches so a repetition scores at most 32k rows.
func serveCalls(batch int) int {
	if n := 1 << 15 / batch; n < 400 {
		return n
	}
	return 400
}

var serveMetrics = []metric{{"ns_per_op", "ns"}, {"rows_per_s_per_core", "rows/s"},
	{"p50_ns", "ns"}, {"p99_ns", "ns"}, {"allocs_per_op", "count"}}

// serveArm times serveCalls(batch) single-goroutine requests of work on
// body per repetition. Single-goroutine throughput is per-core throughput.
func serveArm(name string, body []byte, batch int, work func([]byte)) arm {
	return arm{name, func() []float64 {
		ns, allocs := callLoop(serveCalls(batch), func() { work(body) })
		avg := mean(ns)
		sorted := append([]float64(nil), ns...)
		sort.Float64s(sorted)
		return []float64{avg, float64(batch) / avg * 1e9,
			quantile(sorted, 0.5), quantile(sorted, 0.99), allocs}
	}}
}

// loadArm drives the workload from clients concurrent goroutines, each
// scoring the same fixed number of requests, and reports the wall time and
// aggregate rows/s of one repetition. makeWork is called once per goroutine
// so closures carrying per-client scratch (the compiled arm's encode
// buffer) are never shared.
func loadArm(name string, body []byte, batch, clients int, makeWork func() func([]byte)) arm {
	perClient := 256 / clients
	return arm{name, func() []float64 {
		var done sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < clients; i++ {
			work := makeWork()
			work(body) // warm per-client scratch outside the timed window
			done.Add(1)
			go func() {
				defer done.Done()
				<-start
				for k := 0; k < perClient; k++ {
					work(body)
				}
			}()
		}
		t0 := time.Now()
		close(start)
		done.Wait()
		wall := time.Since(t0)
		return []float64{float64(wall) / 1e6,
			float64(perClient*clients*batch) / wall.Seconds()}
	}}
}

// serveSuite trains a forest once, then A/Bs the legacy interpreter path
// (encoding/json → Schema.ParseRows → File.Predict → encoding/json) against
// the compiled path (infer.DecodeRequest → Model.Predict → pooled append
// encode) on identical request bodies at several batch sizes and client
// counts, the plain handler against the hardened one, and full-depth
// compiled scoring against MaxDepth truncation.
func serveSuite(r *runner, quick bool) {
	trainRows, trees := 20000, 16
	if quick {
		trainRows, trees = 5000, 8
	}
	train := synth.GenerateTrain(synth.Spec{
		Name: "servebench", Rows: trainRows, NumNumeric: 6, NumCategorical: 2, CatLevels: 8,
		NumClasses: 3, ConceptDepth: 6, LabelNoise: 0.05, Seed: 61,
	})
	f, err := forest.Train(&forest.Local{Table: train}, cluster.SchemaOf(train),
		forest.Config{Trees: trees, Params: core.Defaults(), ColFrac: -1, Bootstrap: true, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.SaveForest(&buf, "servebench", f, model.SchemaOf(train)); err != nil {
		log.Fatal(err)
	}
	mf, err := model.Load(&buf)
	if err != nil {
		log.Fatal(err)
	}
	cm, err := infer.Compile(mf)
	if err != nil {
		log.Fatal(err)
	}
	r.count("serve", "model", "compiled", "trees", float64(trees))
	r.count("serve", "model", "compiled", "max_tree_depth", float64(cm.MaxTreeDepth()))

	// Request bodies mirror what a /predict caller sends: string-valued
	// cells, every feature present, drawn from the training distribution.
	rng := rand.New(rand.NewSource(7))
	names := mf.Schema.FeatureNames()
	makeBody := func(batch int) []byte {
		var b bytes.Buffer
		b.WriteString(`{"rows":[`)
		for r := 0; r < batch; r++ {
			if r > 0 {
				b.WriteByte(',')
			}
			b.WriteByte('{')
			for i, name := range names {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(strconv.Quote(name))
				b.WriteByte(':')
				if i < 6 {
					b.WriteString(strconv.Quote(strconv.FormatFloat(rng.NormFloat64()*2, 'g', 6, 64)))
				} else {
					b.WriteString(strconv.Quote("L" + strconv.Itoa(rng.Intn(8))))
				}
			}
			b.WriteByte('}')
		}
		b.WriteString(`]}`)
		return b.Bytes()
	}

	legacyWork := func(body []byte) {
		var req struct {
			Rows []map[string]string `json:"rows"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			log.Fatal(err)
		}
		tbl, err := mf.Schema.ParseRows(req.Rows)
		if err != nil {
			log.Fatal(err)
		}
		preds := mf.Predict(tbl)
		if _, err := json.Marshal(struct {
			Predictions []model.Prediction `json:"predictions"`
		}{preds}); err != nil {
			log.Fatal(err)
		}
	}

	// newCompiledWork builds one request-scoring closure with its own encode
	// buffer — per-client state, exactly as each connection goroutine owns
	// one in the server. The load generator calls this once per goroutine.
	newCompiledWork := func(depth int) func([]byte) {
		var out bytes.Buffer
		return func(body []byte) {
			block := cm.GetBlock()
			res := cm.GetResult()
			reqDepth, err := cm.DecodeRequest(block, body, 1<<20)
			if err != nil {
				log.Fatal(err)
			}
			if reqDepth == 0 {
				reqDepth = depth
			}
			cm.Predict(block, res, reqDepth)
			out.Reset()
			b := out.AvailableBuffer()
			b = append(b, `{"predictions":[`...)
			classes := cm.Classes()
			for i := 0; i < res.Len(); i++ {
				if i > 0 {
					b = append(b, ',')
				}
				b = append(b, `{"class":`...)
				b = strconv.AppendQuote(b, classes[res.Class(i)])
				b = append(b, `,"pmf":[`...)
				for j, p := range res.PMF(i) {
					if j > 0 {
						b = append(b, ',')
					}
					b = strconv.AppendFloat(b, p, 'g', -1, 64)
				}
				b = append(b, ']', '}')
			}
			b = append(b, ']', '}')
			out.Write(b)
			cm.PutResult(res)
			cm.PutBlock(block)
		}
	}
	compiledWork := newCompiledWork(0)

	for _, batch := range []int{1, 64, 1024} {
		body := makeBody(batch)
		r.run("serve", abCase{name: fmt.Sprintf("batch-%d", batch), metrics: serveMetrics, ratio: "speedup",
			arms: []arm{serveArm("legacy", body, batch, legacyWork), serveArm("compiled", body, batch, compiledWork)}})
	}

	// Load sweep: aggregate throughput at 1, 4 and NumCPU concurrent
	// clients on the batch-64 body — how the serving path scales when
	// connections pile on, not just how fast one core runs.
	loadBody := makeBody(64)
	seen := map[int]bool{}
	for _, g := range []int{1, 4, runtime.NumCPU()} {
		if seen[g] {
			continue
		}
		seen[g] = true
		r.run("serve", abCase{name: fmt.Sprintf("load-%dclients", g), ratio: "speedup",
			metrics: []metric{{"wall_ms", "ms"}, {"rows_per_s", "rows/s"}}, arms: []arm{
				// legacyWork keeps no per-call state, so every client can share it.
				loadArm("legacy", loadBody, 64, g, func() func([]byte) { return legacyWork }),
				loadArm("compiled", loadBody, 64, g, func() func([]byte) { return newCompiledWork(0) }),
			}})
	}

	// Resilience A/B: the identical batch-64 body through the full HTTP
	// handler — once with every resilience knob off, once with the limiter,
	// request deadline and a live canary split all armed (window parked far
	// above the benchmark's request count so no promote/rollback fires
	// mid-measurement). The ratio is what overload control costs a healthy
	// request.
	newServerWork := func(s *serve.Server) func([]byte) {
		w := &discardRW{h: make(http.Header)}
		req, err := http.NewRequest(http.MethodPost, "/v1/models/servebench/predict", nil)
		if err != nil {
			log.Fatal(err)
		}
		req.Header.Set("X-Canary-Key", "bench-client")
		req.RemoteAddr = "10.0.0.1:1234"
		var rd bytes.Reader
		return func(body []byte) {
			rd.Reset(body)
			req.Body = io.NopCloser(&rd)
			req.ContentLength = int64(len(body))
			w.code = 0
			s.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				log.Fatalf("serve bench handler returned %d", w.code)
			}
		}
	}
	newBenchRegistry := func(versions int) *registry.Registry {
		reg := registry.New()
		for i := 0; i < versions; i++ {
			if _, err := reg.Load("servebench", mf, "bench"); err != nil {
				log.Fatal(err)
			}
		}
		if _, err := reg.Activate("servebench", 1); err != nil {
			log.Fatal(err)
		}
		return reg
	}
	plainSrv := serve.New(newBenchRegistry(1))
	hardReg := newBenchRegistry(2)
	if _, err := hardReg.StageWindow("servebench", 2, 0.3, 1<<30); err != nil {
		log.Fatal(err)
	}
	hardSrv := serve.New(hardReg,
		serve.WithMaxInflight(64), serve.WithQueue(16, 50*time.Millisecond),
		serve.WithRequestTimeout(5*time.Second))
	resBody := makeBody(64)
	r.run("serve", abCase{name: "resilience", metrics: serveMetrics, ratio: "overhead", arms: []arm{
		serveArm("plain", resBody, 64, newServerWork(plainSrv)),
		serveArm("hardened", resBody, 64, newServerWork(hardSrv)),
	}})

	// MaxDepth sweep: the Appendix-D truncation knob on the compiled arm,
	// full-depth scoring against depths from 2 up to below the deepest
	// trained tree.
	depthBody := makeBody(256)
	depthArms := []arm{serveArm("full", depthBody, 256, compiledWork)}
	for depth := 2; depth < cm.MaxTreeDepth(); depth += 2 {
		depthArms = append(depthArms, serveArm(fmt.Sprintf("depth-%d", depth), depthBody, 256, newCompiledWork(depth)))
	}
	r.run("serve", abCase{name: "depth", metrics: serveMetrics, ratio: "speedup", arms: depthArms})
}
