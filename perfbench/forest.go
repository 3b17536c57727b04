package main

import (
	"fmt"
	"math/rand"

	"treeserver/internal/cluster"
	"treeserver/internal/core"
	"treeserver/internal/dataset"
	"treeserver/internal/forest"
	"treeserver/internal/obs"
	"treeserver/internal/synth"
)

// forestTable is the higgs-like set: 64k rows, 28 numeric columns, 2
// classes.
func forestTable(seed int64) *dataset.Table {
	spec := synth.Spec{
		Name: "higgs", Rows: 64000, NumNumeric: 28, NumClasses: 2,
		ConceptDepth: 7, LabelNoise: 0.05, Seed: 1,
	}
	return seededTables(spec, seed, 64000)[0]
}

// seededTables generates a workload's data set and hands it out cut into
// parts of the given sizes, each in a row order drawn from seed. The data
// set stands in for one of the paper's fixed public data sets, so every
// seed sees the same rows and a job's work does not change from seed to
// seed; the seed still changes the inputs the program receives: the row
// order, and with it every row index the protocol ships and every
// bootstrap bag drawn over them.
func seededTables(spec synth.Spec, seed int64, sizes ...int) []*dataset.Table {
	all := synth.GenerateTrain(spec)
	rng := rand.New(rand.NewSource(seed))
	var out []*dataset.Table
	start := 0
	for _, n := range sizes {
		rows := make([]int32, n)
		for i, p := range rng.Perm(n) {
			rows[i] = int32(start + p)
		}
		out = append(out, all.Gather(rows))
		start += n
	}
	return out
}

// forestSpecs expands the 20-tree random forest (√|A| columns per tree,
// bootstrap bags, dmax = 10, τ_leaf = 1) over the table's schema.
func forestSpecs(tbl *dataset.Table, seed int64) []cluster.TreeSpec {
	return forest.Specs(cluster.SchemaOf(tbl), forest.Config{
		Trees: 20, Params: core.Defaults(), ColFrac: 0, Bootstrap: true, Seed: seed,
	})
}

// checkTrees reports the first tree that is not bit-identical to the oracle.
func checkTrees(got, want []*core.Tree) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d trees, want %d", len(got), len(want))
	}
	for i := range want {
		if d := core.DiffTrees(got[i], want[i]); d != "" {
			return fmt.Errorf("tree %d differs from forest.Local: %s", i, d)
		}
	}
	return nil
}

func runForestExact(cfg runConfig, r *result) error {
	// The oracle trains once per process, outside timing and set-up, on its
	// own copy of the table so it warms no cache the cluster later reads.
	oracleTbl := forestTable(cfg.seed)
	specs := forestSpecs(oracleTbl, cfg.seed)
	oracle, err := (&forest.Local{Table: oracleTbl}).Train(specs)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	st, err := runJobs(cfg, r, jobSpec{
		minJobs: 5,
		setup: func(o *obs.Registry) (*jobEnv, error) {
			tbl := forestTable(cfg.seed)
			c, err := cluster.NewInProcess(tbl, clusterOptions(o)...)
			if err != nil {
				return nil, err
			}
			return &jobEnv{tbl: tbl, cluster: c}, nil
		},
		job: func(env *jobEnv, _ int64) (any, error) {
			return env.cluster.Train(specs)
		},
		check: func(out any) error { return checkTrees(out.([]*core.Tree), oracle) },
	})
	if err != nil {
		return err
	}
	if !cfg.trace {
		reportJobs(r, st)
		return nil
	}
	reportClusterLayers(r, st)
	naLayers(r, "forest-exact serves no requests", "infer.", "serve.", "registry.", "loadgen.")
	naLayers(r, "forest-exact runs no boosting rounds", "gbt.")
	reportTableLayers(cfg.tracer, r, func() *dataset.Table { return forestTable(cfg.seed) }, specs[0].Params, specs[0].Bag)
	return nil
}
