// Package chaostest is the distributed-vs-serial equivalence harness: it
// trains forests and boosted models on an in-process cluster whose fabric is
// wrapped in a seeded transport.ChaosNetwork, and asserts the resulting
// models are bit-for-bit identical (core.DiffTrees over Tree.Canon) to the
// single-threaded serial trainer on the same data.
//
// Every fault the fabric injects is a pure function of (seed, plan), so a
// failing cell prints exactly those two values plus the trace tail; re-running
// the named subtest replays the identical fault schedule.
package chaostest

import (
	"fmt"
	"testing"
	"time"

	"treeserver/internal/cluster"
	"treeserver/internal/core"
	"treeserver/internal/gbt"
	"treeserver/internal/obs"
	"treeserver/internal/synth"
	"treeserver/internal/transport"
)

// Cell is one grid configuration: a dataset, a cluster shape (τ_D, τ_dfs,
// replication k, retry policy), a fault plan, and the models to train.
type Cell struct {
	Name string
	// Seed drives the chaos fabric's fault draws (not the dataset, which has
	// its own seed in Data). Same (Seed, Plan) -> same fault schedule.
	Seed int64
	Data synth.Spec
	// Cluster is used as given except WrapEndpoint, which Run overrides with
	// the chaos fabric (unless Raw).
	Cluster cluster.Config
	Plan    transport.FaultPlan
	// Raw skips the chaos wrap entirely: the bare in-memory fabric, for
	// fault-free property trials.
	Raw bool
	// ExpectFaults asserts the plan actually injected something — a guard
	// against plans that silently match no links.
	ExpectFaults bool
	// Trees is the forest size (minimum 1); Bag > 0 bootstrap-samples that
	// many rows per tree, otherwise every tree sees all rows.
	Trees int
	Bag   int
	// MaxDepth bounds the forest trees (0 = core.Defaults' depth).
	MaxDepth int
	// GBTRounds > 0 additionally trains a boosted model through the cluster's
	// SetTarget protocol and compares it round-for-round with gbt.LocalEngine.
	// Requires a regression or binary-classification dataset. Note the forest
	// comparison always runs first: SetTarget permanently converts the
	// cluster to regression.
	GBTRounds int
	// Verify, when set, receives the cell's telemetry registry after the
	// standard checks — the gray-failure cells assert hedge and quarantine
	// counters here.
	Verify func(t *testing.T, reg *obs.Registry)
}

// planTimeout derives a cell's job timeout from its fault plan instead of a
// hard-coded constant: a fixed base budget plus a few hundred round-trips of
// the plan's worst per-message latency, so a cell whose links are configured
// slow gets proportionally more wall-clock before it is declared hung.
func planTimeout(plan transport.FaultPlan) time.Duration {
	base := 2 * time.Minute
	var worst time.Duration
	for _, l := range plan.Links {
		if d := l.Delay + l.Jitter; d > worst {
			worst = d
		}
	}
	for _, d := range plan.Degrades {
		extra := d.Delay + d.Jitter
		if d.Factor > 1 {
			for _, l := range plan.Links {
				if scaled := time.Duration(d.Factor * float64(l.Delay+l.Jitter)); scaled+d.Delay+d.Jitter > extra {
					extra = scaled + d.Delay + d.Jitter
				}
			}
		}
		if extra > worst {
			worst = extra
		}
	}
	return base + 400*worst
}

// failf reports a failure with everything needed to replay it: the cell
// name, the chaos seed, the fault plan, and the tail of the decision trace.
func failf(t *testing.T, cell Cell, chaos *transport.ChaosNetwork, format string, args ...any) {
	t.Helper()
	msg := fmt.Sprintf(format, args...)
	if cell.Raw || chaos == nil {
		t.Fatalf("cell %q (raw fabric, data seed %d): %s", cell.Name, cell.Data.Seed, msg)
	}
	t.Fatalf("cell %q: %s\n\nREPRO seed=%d plan=%s\nre-run: go test -race ./internal/chaostest -run 'TestEquivalenceGrid/%s'\n\n%s",
		cell.Name, msg, chaos.Seed(), chaos.Plan(), cell.Name, chaos.TraceTail(40))
}

// forestSpecs builds the cell's tree specs; the same specs drive both the
// distributed run and the serial reference.
func forestSpecs(cell Cell, numRows int) []cluster.TreeSpec {
	n := cell.Trees
	if n < 1 {
		n = 1
	}
	params := core.Defaults()
	if cell.MaxDepth > 0 {
		params.MaxDepth = cell.MaxDepth
	}
	specs := make([]cluster.TreeSpec, n)
	for i := range specs {
		bag := cluster.BagSpec{NumRows: numRows}
		if cell.Bag > 0 {
			bag.Sample = cell.Bag
			bag.Seed = cell.Seed + int64(i)*7919
		}
		specs[i] = cluster.TreeSpec{Params: params, Bag: bag}
	}
	return specs
}

// Run executes one cell: build the dataset, wrap the fabric, train
// distributed, train serial, diff bit-for-bit.
func Run(t *testing.T, cell Cell) {
	t.Helper()
	tbl := synth.GenerateTrain(cell.Data)

	var chaos *transport.ChaosNetwork
	cfg := cell.Cluster
	if cfg.JobTimeout == 0 {
		cfg.JobTimeout = planTimeout(cell.Plan)
	}
	if !cell.Raw {
		chaos = transport.NewChaosNetwork(cell.Seed, cell.Plan)
		cfg.WrapEndpoint = chaos.Wrap
	}
	// Every cell runs with live telemetry: the registry's atomics are hammered
	// by the same goroutines the chaos fabric perturbs, so the -race grid
	// doubles as the registry's concurrency certificate — and the bit-for-bit
	// equality assertions prove observation does not change the model.
	reg := obs.NewRegistry()
	cfg.Obs = reg
	c, err := cluster.NewInProcess(tbl, cluster.WithConfig(cfg))
	if err != nil {
		failf(t, cell, chaos, "NewInProcess: %v", err)
	}
	defer c.Close()

	// Forest: distributed vs core.TrainLocal, tree by tree.
	specs := forestSpecs(cell, tbl.NumRows())
	trees, err := c.Train(specs)
	if err != nil {
		failf(t, cell, chaos, "distributed Train: %v", err)
	}
	for i, spec := range specs {
		serial := core.TrainLocal(tbl, spec.Bag.Rows(), spec.Params)
		if d := core.DiffTrees(serial, trees[i]); d != "" {
			failf(t, cell, chaos, "tree %d diverges from serial:\n%s", i, d)
		}
	}

	// Boosting: the same rounds through SetTarget vs gbt.LocalEngine.
	if cell.GBTRounds > 0 {
		gcfg := gbt.Config{Rounds: cell.GBTRounds, MaxDepth: 4, Seed: cell.Seed}
		serial, err := gbt.Train(&gbt.LocalEngine{Table: tbl}, tbl, gcfg)
		if err != nil {
			failf(t, cell, chaos, "serial gbt.Train: %v", err)
		}
		dist, err := gbt.Train(c, tbl, gcfg)
		if err != nil {
			failf(t, cell, chaos, "distributed gbt.Train: %v", err)
		}
		if serial.Base != dist.Base {
			failf(t, cell, chaos, "gbt base: serial %x, distributed %x", serial.Base, dist.Base)
		}
		if len(serial.Trees) != len(dist.Trees) {
			failf(t, cell, chaos, "gbt rounds: serial %d, distributed %d", len(serial.Trees), len(dist.Trees))
		}
		for i := range serial.Trees {
			if d := core.DiffTrees(serial.Trees[i], dist.Trees[i]); d != "" {
				failf(t, cell, chaos, "gbt round %d diverges from serial:\n%s", i, d)
			}
		}
	}

	if chaos != nil {
		if cell.ExpectFaults && chaos.Faults() == 0 {
			failf(t, cell, chaos, "plan injected no faults — cell is not testing anything")
		}
		t.Logf("cell %q: seed=%d, %d messages traced, %d faults injected", cell.Name, chaos.Seed(), len(chaos.Trace()), chaos.Faults())
	}

	verifyTelemetry(t, cell, chaos, reg)
	if cell.Verify != nil {
		cell.Verify(t, reg)
	}
}

// verifyTelemetry asserts the snapshot invariants that must hold at
// quiescence after a successful job, whatever faults the fabric injected.
func verifyTelemetry(t *testing.T, cell Cell, chaos *transport.ChaosNetwork, reg *obs.Registry) {
	t.Helper()
	s := reg.Snapshot()
	m := s.Master
	if m.TasksPlanned <= 0 || m.TasksCompleted <= 0 {
		failf(t, cell, chaos, "telemetry: planned %d / completed %d tasks after a successful job", m.TasksPlanned, m.TasksCompleted)
	}
	if m.TasksConfirmed > m.TasksPlanned {
		failf(t, cell, chaos, "telemetry: %d confirms exceed %d plans", m.TasksConfirmed, m.TasksPlanned)
	}
	if m.TasksRetried < 0 || m.TasksSuperseded < 0 || s.Retries() < 0 {
		failf(t, cell, chaos, "telemetry: negative retry counts (%d/%d/%d)", m.TasksRetried, m.TasksSuperseded, s.Retries())
	}
	var comp float64
	for _, row := range s.MWork() {
		comp += row[0]
	}
	if comp <= 0 {
		failf(t, cell, chaos, "telemetry: measured M_work Comp column is zero after training")
	}
}
