package chaostest

import (
	"testing"
	"time"

	"treeserver/internal/cluster"
	"treeserver/internal/core"
	"treeserver/internal/synth"
	"treeserver/internal/task"
	"treeserver/internal/transport"
)

// histChaosPlan is the seeded drop+delay fabric the hist-mode cells train
// under: silent loss forces bin-round and task re-execution, delay+jitter
// reorders column results.
func histChaosPlan() transport.FaultPlan {
	return transport.FaultPlan{Name: "hist-drops-delays", Links: []transport.LinkFault{{
		From: "*", To: "*", Drop: 0.02,
		Delay: 200 * time.Microsecond, Jitter: 500 * time.Microsecond,
	}}}
}

// TestHistModeDeterministic trains the same forest in hist mode twice under
// the chaos fabric with two different fault schedules and requires the
// results bit-for-bit identical: bins come from order-insensitively merged
// sketches, the best candidate is chosen by the order-independent Better
// comparator, task re-execution recomputes identical histograms, and
// subtraction is bitwise-exact — so no fault timing may leak into the model. An exact-mode run on the same data
// anchors quality: held-out accuracy must stay within one point.
func TestHistModeDeterministic(t *testing.T) {
	spec := synth.Spec{Name: "histchaos", Rows: 4000, NumNumeric: 8, NumCategorical: 2,
		CatLevels: 5, NumClasses: 2, ConceptDepth: 6, LabelNoise: 0.05, Seed: 21}
	train, test := synth.Generate(spec, 0.2)
	n := train.NumRows()

	const trees = 3
	params := core.Defaults()
	params.MaxDepth = 8
	specs := make([]cluster.TreeSpec, trees)
	for i := range specs {
		specs[i] = cluster.TreeSpec{Params: params,
			Bag: cluster.BagSpec{NumRows: n, Sample: n * 3 / 4, Seed: int64(i)*7919 + 1}}
	}

	trainForest := func(mode cluster.SplitMode, chaosSeed int64) ([]*core.Tree, *transport.ChaosNetwork) {
		plan := histChaosPlan()
		chaos := transport.NewChaosNetwork(chaosSeed, plan)
		cfg := cluster.Config{
			MasterConfig: cluster.MasterConfig{
				NumWorkers: 4, Replicas: 2,
				// TauD = 1: every split goes through the column-task protocol the
				// hist mode replaces, never the serial subtree shortcut.
				Policy:          task.Policy{TauD: 1, TauDFS: n / 2, NPool: 8},
				TaskRetry:       250 * time.Millisecond,
				MaxTaskAttempts: 8,
				JobTimeout:      planTimeout(plan),
				SplitMode:       mode,
			},
			Compers: 2, WrapEndpoint: chaos.Wrap,
		}
		if mode == cluster.SplitHist {
			cfg.MaxBins = 256
		}
		c, err := cluster.NewInProcess(train, cluster.WithConfig(cfg))
		if err != nil {
			t.Fatalf("NewInProcess(%v): %v", mode, err)
		}
		defer c.Close()
		forest, err := c.Train(specs)
		if err != nil {
			t.Fatalf("mode %v chaos seed %d: Train: %v\n\n%s", mode, chaosSeed, err, chaos.TraceTail(40))
		}
		return forest, chaos
	}

	histA, chaosA := trainForest(cluster.SplitHist, 101)
	histB, chaosB := trainForest(cluster.SplitHist, 202)
	for _, chaos := range []*transport.ChaosNetwork{chaosA, chaosB} {
		if chaos.Faults() == 0 {
			t.Fatalf("chaos seed %d injected no faults — the cell is not testing anything", chaos.Seed())
		}
	}
	for i := range histA {
		if d := core.DiffTrees(histA[i], histB[i]); d != "" {
			t.Fatalf("hist tree %d differs between chaos seeds %d and %d:\n%s\n\nREPRO plan=%s\n%s",
				i, chaosA.Seed(), chaosB.Seed(), d, chaosB.Plan(), chaosB.TraceTail(40))
		}
	}

	// Held-out hits are compared as integer counts: "within 1%" means the two
	// forests may disagree on at most 1 row in 100, with no float slop at the
	// boundary.
	hits := func(forest []*core.Tree) int {
		h := 0
		for r := 0; r < test.NumRows(); r++ {
			votes := make(map[int32]int, 2)
			for _, tr := range forest {
				votes[tr.PredictClass(test, r, 0)]++
			}
			best, bestN := int32(0), -1
			for c, v := range votes {
				if v > bestN || (v == bestN && c < best) {
					best, bestN = c, v
				}
			}
			if best == test.Y().Cats[r] {
				h++
			}
		}
		return h
	}

	exact, _ := trainForest(cluster.SplitExact, 303)
	exactHits, histHits := hits(exact), hits(histA)
	diff := exactHits - histHits
	if diff < 0 {
		diff = -diff
	}
	if tol := test.NumRows() / 100; diff > tol {
		t.Fatalf("held-out accuracy: exact %d/%d vs hist %d/%d (diff %d rows, want within %d)",
			exactHits, test.NumRows(), histHits, test.NumRows(), diff, tol)
	}
	t.Logf("hist deterministic across fault schedules; held-out hits exact %d/%d vs hist %d/%d",
		exactHits, test.NumRows(), histHits, test.NumRows())
}
