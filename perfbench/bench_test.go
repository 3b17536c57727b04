package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"testing"
	"time"

	"treeserver/internal/cluster"
	"treeserver/internal/core"
	"treeserver/internal/forest"
	"treeserver/internal/gbt"
	"treeserver/internal/model"
	"treeserver/internal/obs"
	"treeserver/internal/registry"
	"treeserver/internal/serve"
	"treeserver/internal/synth"
)

var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesMetrics holds BENCHMARK.json to the metric and
// workload lists the benchmark reports, and every name to the naming rule.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !validName.MatchString(n) {
			t.Errorf("invalid name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		name(m.Name)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		name(m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	for _, d := range ungated {
		if seen[d.name] {
			t.Errorf("ungated metric %s is declared in BENCHMARK.json", d.name)
		}
		name(d.name)
	}
}

// smallForest trains a 3-tree forest on a small set with forest.Local.
func smallForest(t *testing.T) (*core.Tree, []*core.Tree, []cluster.TreeSpec) {
	t.Helper()
	spec := synth.Spec{Name: "small", Rows: 1500, NumNumeric: 6, NumClasses: 2, ConceptDepth: 4, Seed: 5}
	tbl := synth.GenerateTrain(spec)
	specs := forest.Specs(cluster.SchemaOf(tbl), forest.Config{Trees: 3, Params: core.Defaults(), Bootstrap: true, Seed: 5})
	trees, err := (&forest.Local{Table: tbl}).Train(specs)
	if err != nil {
		t.Fatal(err)
	}
	// A corrupted copy of the first tree: one PMF entry of the root moved.
	raw, err := trees[0].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bad := new(core.Tree)
	if err := bad.UnmarshalBinary(raw); err != nil {
		t.Fatal(err)
	}
	bad.Root.PMF[0] += 0.25
	return bad, trees, specs
}

// TestCorruptedTreeFailsTheJob runs the job loop against an oracle holding
// one corrupted tree: every job must count as failed, and the run as not
// correct.
func TestCorruptedTreeFailsTheJob(t *testing.T) {
	bad, oracle, specs := smallForest(t)
	if err := checkTrees(oracle, oracle); err != nil {
		t.Fatalf("identical trees rejected: %v", err)
	}
	corrupted := append([]*core.Tree{bad}, oracle[1:]...)
	tbl := synth.GenerateTrain(synth.Spec{Name: "small", Rows: 1500, NumNumeric: 6, NumClasses: 2, ConceptDepth: 4, Seed: 5})
	r := newResult("forest-exact", 5, false)
	_, err := runJobs(runConfig{seconds: time.Nanosecond}, r, jobSpec{
		minJobs: 2,
		setup: func(o *obs.Registry) (*jobEnv, error) {
			c, err := cluster.NewInProcess(tbl, clusterOptions(o)...)
			return &jobEnv{tbl: tbl, cluster: c}, err
		},
		job:   func(env *jobEnv, _ int64) (any, error) { return env.cluster.Train(specs) },
		check: func(out any) error { return checkTrees(out.([]*core.Tree), corrupted) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Attempted != 3 || r.Failed != 3 {
		t.Fatalf("attempted %d failed %d, want 3 and 3", r.Attempted, r.Failed)
	}
	if r.summary().Correct {
		t.Fatal("a run with corrupted trees reports correct")
	}
}

// TestCorruptedBoostModelFails checks the boost-hist comparison catches a
// changed tree.
func TestCorruptedBoostModelFails(t *testing.T) {
	bad, trees, _ := smallForest(t)
	m := &gbt.Model{Base: 1, Trees: trees}
	if err := sameModel(m, m); err != nil {
		t.Fatalf("identical models rejected: %v", err)
	}
	if sameModel(&gbt.Model{Base: 1, Trees: append([]*core.Tree{bad}, trees[1:]...)}, m) == nil {
		t.Fatal("corrupted model accepted")
	}
}

// TestCorruptedPredictionFails serves a small forest, checks its real
// response passes the oracle, and that a response with one digit changed,
// or one that differs from the verified bytes, counts as a failure.
func TestCorruptedPredictionFails(t *testing.T) {
	_, trees, _ := smallForest(t)
	tbl := synth.GenerateTrain(synth.Spec{Name: "small", Rows: 1500, NumNumeric: 6, NumClasses: 2, ConceptDepth: 4, Seed: 5})
	schema := cluster.SchemaOf(tbl)
	var buf bytes.Buffer
	f := &forest.Forest{Trees: trees, Task: schema.Task, NumClasses: schema.NumClasses}
	if err := model.SaveForest(&buf, modelName, f, model.SchemaOf(tbl)); err != nil {
		t.Fatal(err)
	}
	mf, err := model.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	reg := registry.New()
	if _, err := reg.Load(modelName, mf, "test"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Activate(modelName, 0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(reg))
	defer ts.Close()
	url := ts.URL + "/v1/models/" + modelName + "/predict"

	n := mf.Schema.FeatureNames()
	rows := []map[string]string{{n[0]: "0.5", n[1]: "-1.25", n[2]: "3"}, {n[3]: "0.1"}}
	body := []byte(`{"rows":[{"` + n[0] + `":0.5,"` + n[1] + `":"-1.25","` + n[2] + `":3,"` + n[4] + `":null},` +
		`{"` + n[3] + `":0.1,"` + n[5] + `":"NA"}]}`)
	q := &requests{small: [][]byte{body}, rows: [][]map[string]string{rows}}
	env := &serveEnv{file: mf}
	lc := newLoadClient(url)
	defer lc.close()
	if err := q.verify(env, lc.c, url); err != nil {
		t.Fatalf("real response rejected: %v", err)
	}
	want := q.want[0]
	corrupt := bytes.Replace(want, []byte(`"pmf":[0`), []byte(`"pmf":[1`), 1)
	if bytes.Equal(corrupt, want) {
		corrupt = bytes.Replace(want, []byte(`"pmf":[1`), []byte(`"pmf":[0`), 1)
	}
	if checkResponse(mf, rows, corrupt) == nil {
		t.Fatalf("corrupted response accepted: %s", corrupt)
	}

	// In a timed phase a response that differs from the verified bytes
	// counts as failed.
	q.want[0] = corrupt
	res := runPhase(lc, q, []arrival{{due: 0}, {due: time.Millisecond}}, 1000, nil, nil)
	if res.Failed != 2 {
		t.Fatalf("phase counted %d failures, want 2", res.Failed)
	}
	status, _, err := post(context.Background(), lc.c, url, []byte(`{"rows":[]}`))
	if err != nil || status != http.StatusBadRequest {
		t.Fatalf("empty request: status %d, %v", status, err)
	}
}

// TestTracedRunsReportEveryPerLayerMetric runs each workload traced for one
// second and checks it reports every per-layer metric, with a reason for
// each one its workload does not exercise.
func TestTracedRunsReportEveryPerLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the full workloads")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{seed: 1, seconds: time.Second, trace: true, tracer: newTracer()}
			r := newResult(w.name, 1, true)
			if err := w.run(cfg, r); err != nil {
				t.Fatal(err)
			}
			if err := r.complete(); err != nil {
				t.Fatal(err)
			}
			if r.Failed != 0 {
				t.Fatalf("%d operations failed: %v", r.Failed, r.Failures)
			}
			for _, d := range perLayer {
				m := r.Metrics[d.name]
				if _, na := r.NotApplicable[d.name]; !na && m.Samples == 0 {
					t.Errorf("%s: no samples and no reason", d.name)
				}
			}
			if err := cfg.tracer.writeChrome(t.TempDir() + "/trace.json"); err != nil {
				t.Fatal(err)
			}
		})
	}
}
