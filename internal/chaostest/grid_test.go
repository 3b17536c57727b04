package chaostest

import (
	"testing"
	"time"

	"treeserver/internal/cluster"
	"treeserver/internal/synth"
	"treeserver/internal/task"
	"treeserver/internal/transport"
)

// grid is the chaos matrix: each cell varies the dataset, the task policy
// (τ_D, τ_dfs), the replication factor k, the retry policy, and the fault
// plan. Every cell must produce models bit-for-bit identical to the serial
// trainer. Plans deliberately exclude ExtraTrees: completely-random split
// drawing consumes fresh rng draws per task execution, so task re-execution
// legitimately changes those trees and there is no serial oracle for them.
func grid() []Cell {
	everyLink := func(f transport.LinkFault) []transport.LinkFault {
		f.From, f.To = "*", "*"
		return []transport.LinkFault{f}
	}
	return []Cell{
		{
			// Clean fabric through the chaos wrapper: proves the decorator is
			// transparent when the plan is empty, and anchors the grid.
			Name: "baseline",
			Seed: 1,
			Data: synth.Spec{Name: "base", Rows: 2000, NumNumeric: 7, NumCategorical: 3,
				CatLevels: 6, NumClasses: 2, MissingRate: 0.05, ConceptDepth: 6, LabelNoise: 0.05, Seed: 11},
			Cluster: cluster.Config{MasterConfig: cluster.MasterConfig{NumWorkers: 4, Replicas: 2,
				Policy: task.Policy{TauD: 500, TauDFS: 1500, NPool: 8}}, Compers: 2,
			},
			Plan:  transport.FaultPlan{Name: "none"},
			Trees: 3, Bag: 1500, MaxDepth: 8,
			GBTRounds: 2,
		},
		{
			// Silent message loss on every link; master-side task re-execution
			// is the only recovery (send-level retry cannot see a drop).
			Name: "drops",
			Seed: 2,
			Data: synth.Spec{Name: "drops", Rows: 1600, NumNumeric: 8, NumCategorical: 2,
				CatLevels: 5, NumClasses: 2, ConceptDepth: 5, LabelNoise: 0.05, Seed: 12},
			Cluster: cluster.Config{MasterConfig: cluster.MasterConfig{NumWorkers: 4, Replicas: 2,
				Policy:    task.Policy{TauD: 400, TauDFS: 1200, NPool: 8},
				TaskRetry: 250 * time.Millisecond, MaxTaskAttempts: 8}, Compers: 2},
			Plan:         transport.FaultPlan{Name: "drops", Links: everyLink(transport.LinkFault{Drop: 0.03})},
			ExpectFaults: true,
			Trees:        2, Bag: 1200, MaxDepth: 8,
		},
		{
			// The required drops+delays combination, plus duplication and a
			// dataset with missing values and three classes.
			Name: "drops-delays",
			Seed: 3,
			Data: synth.Spec{Name: "dd", Rows: 1800, NumNumeric: 6, NumCategorical: 4,
				CatLevels: 7, NumClasses: 3, MissingRate: 0.1, ConceptDepth: 6, LabelNoise: 0.05, Seed: 13},
			Cluster: cluster.Config{MasterConfig: cluster.MasterConfig{NumWorkers: 4, Replicas: 2,
				Policy:    task.Policy{TauD: 600, TauDFS: 1800, NPool: 8},
				TaskRetry: 300 * time.Millisecond, MaxTaskAttempts: 8}, Compers: 2},
			Plan: transport.FaultPlan{Name: "drops-delays",
				Links: everyLink(transport.LinkFault{Drop: 0.02, Dup: 0.02,
					Delay: 200 * time.Microsecond, Jitter: 500 * time.Microsecond})},
			ExpectFaults: true,
			Trees:        2, Bag: 1400, MaxDepth: 8,
		},
		{
			// Duplication and reordering only — nothing is ever lost, so this
			// cell runs with re-execution OFF: protocol idempotence alone must
			// keep the models identical.
			Name: "dup-reorder",
			Seed: 4,
			Data: synth.Spec{Name: "dupre", Rows: 1500, NumNumeric: 9, NumCategorical: 0,
				NumClasses: 2, ConceptDepth: 5, LabelNoise: 0.05, Seed: 14},
			Cluster: cluster.Config{MasterConfig: cluster.MasterConfig{NumWorkers: 4, Replicas: 2,
				Policy: task.Policy{TauD: 300, TauDFS: 1000, NPool: 8}}, Compers: 2,
			},
			Plan:         transport.FaultPlan{Name: "dup-reorder", Links: everyLink(transport.LinkFault{Dup: 0.05, Reorder: 0.04})},
			ExpectFaults: true,
			Trees:        2, Bag: 1100, MaxDepth: 8,
		},
		{
			// A seq-windowed partition between the two worker halves: early
			// worker-to-worker row traffic dies until each cut link's sequence
			// number clears the window. k = 3 so column data stays reachable.
			// The window must stay well under MaxTaskAttempts: a sparse cut
			// link (one row-response per retry) advances roughly one seq per
			// attempt, so escape costs up to UntilSeq re-executions.
			Name: "partition",
			Seed: 5,
			Data: synth.Spec{Name: "part", Rows: 1700, NumNumeric: 7, NumCategorical: 2,
				CatLevels: 5, NumClasses: 2, ConceptDepth: 5, LabelNoise: 0.05, Seed: 15},
			Cluster: cluster.Config{MasterConfig: cluster.MasterConfig{NumWorkers: 4, Replicas: 3,
				Policy:    task.Policy{TauD: 400, TauDFS: 1300, NPool: 8},
				TaskRetry: 200 * time.Millisecond, MaxTaskAttempts: 12}, Compers: 2},
			Plan: transport.FaultPlan{Name: "partition", Partitions: []transport.Partition{{
				A:       []string{cluster.WorkerName(0), cluster.WorkerName(1)},
				B:       []string{cluster.WorkerName(2), cluster.WorkerName(3)},
				FromSeq: 0, UntilSeq: 6,
			}}},
			ExpectFaults: true,
			Trees:        3, Bag: 1300, MaxDepth: 8,
		},
		{
			// The required mid-training kill: worker 2 fail-stops after its
			// 60th send (early in the forest). The heartbeat prober must
			// detect it, re-replicate its columns from the k = 2 survivors and
			// requeue its tasks; boosting then runs on the 3-worker remnant.
			Name: "kill",
			Seed: 6,
			Data: synth.Spec{Name: "kill", Rows: 1600, NumNumeric: 8, NumCategorical: 2,
				CatLevels: 6, NumClasses: 2, ConceptDepth: 5, LabelNoise: 0.05, Seed: 16},
			Cluster: cluster.Config{MasterConfig: cluster.MasterConfig{NumWorkers: 4, Replicas: 2,
				Policy:    task.Policy{TauD: 400, TauDFS: 1200, NPool: 8},
				Heartbeat: 5 * time.Millisecond,
				TaskRetry: 400 * time.Millisecond, MaxTaskAttempts: 8}, Compers: 2},
			Plan: transport.FaultPlan{Name: "kill-w2",
				Kills: []transport.Kill{{Name: cluster.WorkerName(2), AfterSends: 60}}},
			ExpectFaults: true,
			Trees:        3, Bag: 1200, MaxDepth: 8,
			GBTRounds: 2,
		},
		{
			// Explicit send errors at a brutal rate: the transport's bounded
			// retry absorbs almost all of them; the rare send that fails every
			// attempt is recovered by task re-execution. Regression dataset,
			// k = 1 (no loss of endpoints, so no replication needed).
			Name: "senderr",
			Seed: 7,
			Data: synth.Spec{Name: "serr", Rows: 1400, NumNumeric: 8, NumCategorical: 2,
				CatLevels: 5, NumClasses: 0, ConceptDepth: 5, Seed: 17},
			Cluster: cluster.Config{MasterConfig: cluster.MasterConfig{NumWorkers: 4, Replicas: 1,
				Policy:    task.Policy{TauD: 350, TauDFS: 1100, NPool: 8},
				TaskRetry: 300 * time.Millisecond, MaxTaskAttempts: 8}, Compers: 2},
			Plan:         transport.FaultPlan{Name: "senderr", Links: everyLink(transport.LinkFault{SendErr: 0.25})},
			ExpectFaults: true,
			Trees:        2, Bag: 1000, MaxDepth: 8,
		},
		{
			// Boosting under loss: three SetTarget rounds over a dropping,
			// duplicating fabric exercise the target resend/ack protocol.
			Name: "gbt-drops",
			Seed: 8,
			Data: synth.Spec{Name: "gbtd", Rows: 1500, NumNumeric: 7, NumCategorical: 3,
				CatLevels: 6, NumClasses: 2, ConceptDepth: 5, LabelNoise: 0.05, Seed: 18},
			Cluster: cluster.Config{MasterConfig: cluster.MasterConfig{NumWorkers: 5, Replicas: 2,
				Policy:    task.Policy{TauD: 450, TauDFS: 1350, NPool: 8},
				TaskRetry: 250 * time.Millisecond, MaxTaskAttempts: 8}, Compers: 2},
			Plan:         transport.FaultPlan{Name: "gbt-drops", Links: everyLink(transport.LinkFault{Drop: 0.02, Dup: 0.02})},
			ExpectFaults: true,
			Trees:        1, MaxDepth: 8,
			GBTRounds: 3,
		},
	}
}

// TestEquivalenceGrid runs every chaos cell. Cells run sequentially so each
// gets the machine to itself — fault *decisions* are deterministic in
// (seed, plan) regardless, but sequential runs keep wall-clock behaviour
// (heartbeats, retry deadlines) far away from timing edges.
func TestEquivalenceGrid(t *testing.T) {
	cells := grid()
	if len(cells) < 6 {
		t.Fatalf("grid has %d cells, want >= 6", len(cells))
	}
	for _, cell := range cells {
		t.Run(cell.Name, func(t *testing.T) {
			Run(t, cell)
		})
	}
}
