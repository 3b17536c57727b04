package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"treeserver/internal/core"
	"treeserver/internal/dataset"
	"treeserver/internal/metrics"
	"treeserver/internal/obs"
	"treeserver/internal/synth"
	"treeserver/internal/task"
)

// histConfig forces every split through the column-task protocol so the hist
// path — not the exact subtree fallback — trains the tree.
func histConfig(maxBins int) Config {
	cfg := testConfig()
	cfg.Policy = task.Policy{TauD: 1, TauDFS: 800, NPool: 4}
	cfg.SplitMode = SplitHist
	cfg.MaxBins = maxBins
	return cfg
}

// assertEquivalentTrees walks two trees in lockstep over the same row set and
// fails unless they are the same tree up to threshold placement: identical
// structure, split columns, induced row partitions, and leaf predictions. At
// depth ≥ 1 a node sees a subset of rows, so the saturated hist threshold may
// sit at a different point of the same value gap than the exact midpoint —
// the partitions are what the equivalence property guarantees.
func assertEquivalentTrees(t *testing.T, tbl *dataset.Table, got, want *core.Tree) {
	t.Helper()
	if got.NumNodes != want.NumNodes || got.MaxDepth != want.MaxDepth {
		t.Fatalf("shape differs: %d nodes depth %d vs %d nodes depth %d",
			got.NumNodes, got.MaxDepth, want.NumNodes, want.MaxDepth)
	}
	var walk func(g, w *core.Node, rows []int32)
	walk = func(g, w *core.Node, rows []int32) {
		if g.IsLeaf() != w.IsLeaf() || g.N != w.N {
			t.Fatalf("node %d: leaf=%v n=%d vs leaf=%v n=%d", w.ID, g.IsLeaf(), g.N, w.IsLeaf(), w.N)
		}
		if g.IsLeaf() {
			if g.Class != w.Class || g.Mean != w.Mean {
				t.Fatalf("leaf %d: prediction (%d, %v) vs (%d, %v)", w.ID, g.Class, g.Mean, w.Class, w.Mean)
			}
			return
		}
		if g.Cond.Col != w.Cond.Col || g.Cond.Kind != w.Cond.Kind {
			t.Fatalf("node %d: split %v vs %v", w.ID, g.Cond, w.Cond)
		}
		col := tbl.Cols[w.Cond.Col]
		gl, gr := g.Cond.Partition(col, rows)
		wl, wr := w.Cond.Partition(col, rows)
		if len(gl) != len(wl) || len(gr) != len(wr) {
			t.Fatalf("node %d: partition %d|%d vs %d|%d", w.ID, len(gl), len(gr), len(wl), len(wr))
		}
		for i := range gl {
			if gl[i] != wl[i] {
				t.Fatalf("node %d: left rows diverge at %d", w.ID, i)
			}
		}
		walk(g.Left, w.Left, wl)
		walk(g.Right, w.Right, wr)
	}
	walk(got.Root, want.Root, dataset.AllRows(tbl.NumRows()))
}

// TestHistSaturatedMatchesExactCluster is the cluster-level saturation
// property: with MaxBins large enough that every distinct numeric value gets
// its own bin, hist-mode training must grow the equivalent tree the exact
// protocol (and the serial oracle) produces — same structure, same row
// partitions, same predictions; classification bin counts are integers, so
// even histogram subtraction is bitwise exact.
func TestHistSaturatedMatchesExactCluster(t *testing.T) {
	cases := []synth.Spec{
		{Name: "numeric-clf", Rows: 2000, NumNumeric: 6, NumClasses: 3, ConceptDepth: 4, LabelNoise: 0.05, Seed: 71},
		{Name: "mixed-clf", Rows: 2000, NumNumeric: 3, NumCategorical: 3, CatLevels: 5, NumClasses: 2, ConceptDepth: 4, Seed: 72},
		{Name: "missing-clf", Rows: 1500, NumNumeric: 4, NumCategorical: 2, NumClasses: 2, MissingRate: 0.1, ConceptDepth: 4, Seed: 73},
	}
	for _, spec := range cases {
		t.Run(spec.Name, func(t *testing.T) {
			tbl := synth.GenerateTrain(spec)
			params := core.Defaults()
			params.MaxDepth = 7

			// 4*MaxBins sketch capacity comfortably exceeds the distinct
			// values of a 2000-row column: the summary is lossless and every
			// value is retained as a cut.
			c := newTestCluster(t, tbl, histConfig(4096))
			defer c.Close()
			got, err := c.TrainOne(params)
			if err != nil {
				t.Fatalf("hist training: %v", err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("invalid hist tree: %v", err)
			}
			want := core.TrainLocal(tbl, dataset.AllRows(tbl.NumRows()), params)
			assertEquivalentTrees(t, tbl, got, want)
		})
	}
}

// TestHistModeDeterministicAndAccurate trains the same spec twice in coarse
// (non-saturated) hist mode: the runs must be bit-identical — bins derive
// from order-insensitive merged sketches and the best candidate is chosen by
// the order-independent Better comparator — and the approximate tree's
// training accuracy must stay close to the exact tree's.
func TestHistModeDeterministicAndAccurate(t *testing.T) {
	spec := synth.Spec{Name: "hist-det", Rows: 4000, NumNumeric: 6, NumCategorical: 2,
		NumClasses: 2, ConceptDepth: 5, LabelNoise: 0.05, Seed: 74}
	tbl := synth.GenerateTrain(spec)
	params := core.Defaults()
	params.MaxDepth = 8

	train := func() *core.Tree {
		c := newTestCluster(t, tbl, histConfig(32))
		defer c.Close()
		tr, err := c.TrainOne(params)
		if err != nil {
			t.Fatalf("hist training: %v", err)
		}
		return tr
	}
	first, second := train(), train()
	if !first.Equal(second) {
		t.Fatal("hist-mode training is not deterministic across runs")
	}

	exact := core.TrainLocal(tbl, dataset.AllRows(tbl.NumRows()), params)
	truth := make([]int32, tbl.NumRows())
	for r := range truth {
		truth[r] = tbl.Y().Cats[r]
	}
	histAcc := metrics.Accuracy(classifyAll(first, tbl), truth)
	exactAcc := metrics.Accuracy(classifyAll(exact, tbl), truth)
	if histAcc < exactAcc-0.02 {
		t.Fatalf("hist accuracy %.4f trails exact %.4f by more than 2%%", histAcc, exactAcc)
	}
}

// TestHistModeRegression exercises the regression kernel end to end (direct
// fills only — subtraction is classification-only) and its run-to-run
// determinism.
func TestHistModeRegression(t *testing.T) {
	spec := synth.Spec{Name: "hist-reg", Rows: 3000, NumNumeric: 5, NumCategorical: 2,
		NumClasses: 0, ConceptDepth: 4, LabelNoise: 0.2, Seed: 75}
	tbl := synth.GenerateTrain(spec)
	params := core.Defaults()
	params.MaxDepth = 6

	train := func() *core.Tree {
		c := newTestCluster(t, tbl, histConfig(64))
		defer c.Close()
		tr, err := c.TrainOne(params)
		if err != nil {
			t.Fatalf("hist training: %v", err)
		}
		return tr
	}
	first, second := train(), train()
	if err := first.Validate(); err != nil {
		t.Fatalf("invalid hist regression tree: %v", err)
	}
	if !first.Equal(second) {
		t.Fatal("hist-mode regression training is not deterministic across runs")
	}
}

// TestHistModeSetTargetRounds drives the gradient-boosting cadence under hist
// mode: bins are proposed once, survive SetTarget, and the cached node
// histograms of the previous round must not leak into the next.
func TestHistModeSetTargetRounds(t *testing.T) {
	spec := synth.Spec{Name: "hist-gbt", Rows: 2500, NumNumeric: 5,
		NumClasses: 0, ConceptDepth: 4, LabelNoise: 0.1, Seed: 76}
	tbl := synth.GenerateTrain(spec)
	params := core.Defaults()
	params.MaxDepth = 4

	c := newTestCluster(t, tbl, histConfig(64))
	defer c.Close()
	if _, err := c.TrainOne(params); err != nil {
		t.Fatalf("round 1: %v", err)
	}
	y2 := make([]float64, tbl.NumRows())
	for r := range y2 {
		y2[r] = tbl.Y().Floats[r] * 0.5
	}
	if err := c.SetTarget(y2); err != nil {
		t.Fatalf("SetTarget: %v", err)
	}
	tr, err := c.TrainOne(params)
	if err != nil {
		t.Fatalf("round 2: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid round-2 tree: %v", err)
	}
}

// TestHistObsCounters asserts the hist telemetry shows up: the bin round,
// sketch merges, fills and (for a deep classification tree) subtraction hits.
func TestHistObsCounters(t *testing.T) {
	tbl := synth.GenerateTrain(synth.Spec{Name: "hist-obs", Rows: 3000, NumNumeric: 6,
		NumClasses: 2, ConceptDepth: 5, Seed: 77})
	reg := obs.NewRegistry()
	cfg := histConfig(32)
	cfg.Obs = reg
	c := newTestCluster(t, tbl, cfg)
	defer c.Close()
	params := core.Defaults()
	params.MaxDepth = 8
	if _, err := c.TrainOne(params); err != nil {
		t.Fatalf("train: %v", err)
	}
	snap := reg.Snapshot()
	if snap.Master.BinRounds != 1 {
		t.Fatalf("BinRounds = %d, want 1", snap.Master.BinRounds)
	}
	if snap.Master.SketchMerges == 0 {
		t.Fatal("no sketch merges recorded")
	}
	if snap.Split.HistFills == 0 {
		t.Fatal("no histogram fills recorded")
	}
	if snap.Split.HistSubtractions == 0 {
		t.Fatal("no histogram subtractions recorded on a deep classification tree")
	}
}

// treeDigest is a SHA-256 over a canonical pre-order encoding of every field
// a tree carries. A gob stream is not used: gob assigns wire type ids
// process-wide in first-use order, so its bytes depend on which tests ran
// earlier in the same binary.
func treeDigest(tr *core.Tree) string {
	h := sha256.New()
	put := func(vs ...any) {
		for _, v := range vs {
			if err := binary.Write(h, binary.LittleEndian, v); err != nil {
				panic(err)
			}
		}
	}
	put(uint8(tr.Task), int64(tr.NumClasses), int64(tr.NumNodes), int64(tr.MaxDepth))
	var walk func(n *core.Node)
	walk = func(n *core.Node) {
		put(n.ID, int64(n.Depth), int64(n.N), n.Class, n.Mean,
			int64(len(n.PMF)), n.PMF, int64(len(n.SeenCodes)), n.SeenCodes)
		if n.IsLeaf() {
			put(false)
			return
		}
		c := n.Cond
		put(true, int64(c.Col), uint8(c.Kind), c.Threshold, c.MissingLeft, int64(len(c.LeftSet)), c.LeftSet)
		walk(n.Left)
		walk(n.Right)
	}
	walk(tr.Root)
	return hex.EncodeToString(h.Sum(nil))
}

// TestHistTreesPinned pins the exact hist-mode trees the cluster grows — for
// classification with subtraction, regression, and mixed categorical columns
// with missing cells, each at several bin counts — to digests recorded from a
// known-good build. Any protocol change that alters which split a hist
// column task elects shows up here as a digest mismatch.
func TestHistTreesPinned(t *testing.T) {
	specs := []struct {
		spec     synth.Spec
		maxDepth int
	}{
		{synth.Spec{Name: "clf", Rows: 4000, NumNumeric: 6, NumCategorical: 2,
			NumClasses: 2, ConceptDepth: 5, LabelNoise: 0.05, Seed: 74}, 8},
		{synth.Spec{Name: "reg", Rows: 3000, NumNumeric: 5, NumCategorical: 2,
			NumClasses: 0, ConceptDepth: 4, LabelNoise: 0.2, Seed: 75}, 6},
		{synth.Spec{Name: "missing", Rows: 1500, NumNumeric: 4, NumCategorical: 2,
			NumClasses: 2, MissingRate: 0.1, ConceptDepth: 4, Seed: 73}, 7},
	}
	want := map[string]string{
		"clf/bins=8":       "d8a210166a6e8a64730d07f7075eb18b1eba6862b40053a0157bea429b75d1b9",
		"clf/bins=32":      "c044d13174193c8b6eb576201a49d2642cd947b3a7be4f07e4d0619d7ee7668c",
		"clf/bins=256":     "77de4f779dcaa50bb3f9469640fc4c78b9321185ac892c07a4eef1bbbdc9ffb9",
		"reg/bins=8":       "8ff54166a117e98d3144e5fdead2d2986216b5bcab3b61e2d6dca7aa3480bd61",
		"reg/bins=32":      "4e6afc3ef98575586438ea6c8260810dc89f4cc09741af72fd067727535e86b1",
		"reg/bins=256":     "5f748a9505442af0bf73a7d00e6ab72e62045e9be623a8af36da486b8217a235",
		"missing/bins=8":   "9193d8601ce0bd0b3cb7772537bbfc3329ca75c9ca256bd3193d2d70555b2764",
		"missing/bins=32":  "4af8fe4f615113df439939af515278e6cc4250bcb4e721283e10842071f49500",
		"missing/bins=256": "833cd0537d835d2edacfdbdebcdcf4da567e676e4006acdf4cc78e64779fe221",
	}
	for _, s := range specs {
		tbl := synth.GenerateTrain(s.spec)
		params := core.Defaults()
		params.MaxDepth = s.maxDepth
		for _, bins := range []int{8, 32, 256} {
			name := fmt.Sprintf("%s/bins=%d", s.spec.Name, bins)
			t.Run(name, func(t *testing.T) {
				cfg := testConfig()
				cfg.Policy = task.Policy{TauD: 1, TauDFS: 800, NPool: 4}
				cfg.SplitMode = SplitHist
				cfg.MaxBins = bins
				c := newTestCluster(t, tbl, cfg)
				defer c.Close()
				tr, err := c.TrainOne(params)
				if err != nil {
					t.Fatalf("hist training: %v", err)
				}
				if tr.NumNodes < 15 {
					t.Fatalf("degenerate tree: %d nodes", tr.NumNodes)
				}
				if got := treeDigest(tr); got != want[name] {
					t.Errorf("tree digest %s, want %s", got, want[name])
				}
			})
		}
	}
}
