package chaostest

import (
	"errors"
	"strings"
	"testing"
	"time"

	"treeserver/internal/cluster"
	"treeserver/internal/core"
	"treeserver/internal/obs"
	"treeserver/internal/synth"
	"treeserver/internal/task"
	"treeserver/internal/transport"
)

// The elastic grid: live joins and graceful drains under fabric chaos. Every
// cell trains through churn and still requires the forest bit-for-bit
// identical to the serial trainer — membership is a placement concern, and
// placement must never affect split results.

// churnStep is one membership transition the runner performs while the
// forest job is in flight. Join steps grow the fleet by one; Drain steps
// retire the named worker. AfterTrees gates the step on job progress so the
// transition lands inside an active tree, not before the job starts.
type churnStep struct {
	Join       bool
	Drain      int // worker index, when !Join
	AfterTrees int
}

// elasticCell extends a grid Cell with a churn schedule and, optionally, a
// primary kill racing the first join (the failover-race cell).
type elasticCell struct {
	Cell
	Steps []churnStep
	// KillWithJoin fail-stops the primary right after the first join step is
	// launched, so the handshake races the standby takeover. Requires
	// Cluster.Standby.
	KillWithJoin bool
}

func elasticData() synth.Spec {
	return synth.Spec{Name: "elastic", Rows: 2400, NumNumeric: 6, NumCategorical: 3,
		CatLevels: 5, NumClasses: 3, MissingRate: 0.05, ConceptDepth: 6, LabelNoise: 0.05, Seed: 61}
}

func elasticCells() []elasticCell {
	data := elasticData()
	cfg := cluster.Config{
		MasterConfig: cluster.MasterConfig{
			NumWorkers: 4, Replicas: 2,
			Policy:          task.Policy{TauD: 500, TauDFS: 1500, NPool: 2},
			TaskRetry:       250 * time.Millisecond,
			MaxTaskAttempts: 8,
			JobTimeout:      2 * time.Minute,
		},
		Compers: 2,
	}
	drops := transport.FaultPlan{Name: "drops-delays", Links: []transport.LinkFault{
		{From: "*", To: "*", Drop: 0.01, Delay: 100 * time.Microsecond, Jitter: 300 * time.Microsecond}}}
	delays := transport.FaultPlan{Name: "delays-only", Links: []transport.LinkFault{
		{From: "*", To: "*", Delay: 300 * time.Microsecond, Jitter: 300 * time.Microsecond}}}
	return []elasticCell{
		{
			// A worker joins mid-forest on a lossy, laggy fabric: every
			// handshake message (request, accept, column copies, ready, admit)
			// can drop, and the joiner's retry loop must converge anyway.
			Cell: Cell{Name: "elastic-join-chaos", Seed: 71, Data: data, Cluster: cfg,
				Plan: drops, ExpectFaults: true, Trees: 8, Bag: 1600, MaxDepth: 8},
			Steps: []churnStep{{Join: true, AfterTrees: 1}},
		},
		{
			// A worker is drained while a tree is actively being built: its
			// in-flight attempts finish or are re-executed away, its
			// last-replica columns land on survivors (ack-confirmed through
			// the drops), and the job never notices.
			Cell: Cell{Name: "elastic-drain-active-tree", Seed: 72, Data: data, Cluster: cfg,
				Plan: drops, ExpectFaults: true, Trees: 8, Bag: 1600, MaxDepth: 8},
			Steps: []churnStep{{Drain: 1, AfterTrees: 1}},
		},
		{
			// Churn storm: join, drain a founder, join again, drain another
			// founder — the fleet rolls over under drops while the forest
			// trains. Half the original machines retire; the forest must not
			// show it.
			Cell: Cell{Name: "elastic-churn-storm", Seed: 73, Data: data, Cluster: cfg,
				Plan: drops, ExpectFaults: true, Trees: 10, Bag: 1600, MaxDepth: 8},
			Steps: []churnStep{
				{Join: true, AfterTrees: 1},
				{Drain: 0, AfterTrees: 2},
				{Join: true, AfterTrees: 3},
				{Drain: 1, AfterTrees: 4},
			},
		},
		{
			// Join racing master failover: the primary is killed the moment
			// the join handshake launches. Whether the membership record
			// reached the standby or not, the joiner's retry loop must
			// converge against the promoted master and the forest stays
			// bit-identical.
			Cell: func() Cell {
				c := cfg
				c.Standby = true
				c.LeaseTTL = 200 * time.Millisecond
				c.RejoinTimeout = 5 * time.Second
				c.CheckpointEvery = 50 * time.Millisecond
				return Cell{Name: "elastic-join-failover-race", Seed: 74, Data: data, Cluster: c,
					Plan: delays, Trees: 8, Bag: 1600, MaxDepth: 8}
			}(),
			Steps:        []churnStep{{Join: true, AfterTrees: 1}},
			KillWithJoin: true,
		},
	}
}

// TestElasticChurn is the elastic-fleet equivalence grid.
func TestElasticChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("elastic grid skipped in -short mode")
	}
	for _, cell := range elasticCells() {
		cell := cell
		t.Run(cell.Name, func(t *testing.T) {
			t.Parallel()
			runElastic(t, cell)
		})
	}
}

var errJoinNotJoined = errors.New("join returned nil error but the worker is not admitted")

// activeMasterOf resolves the acting master: the promoted standby's after a
// failover, the original otherwise.
func activeMasterOf(c *cluster.Cluster) *cluster.Master {
	if c.Standby != nil {
		if m := c.Standby.Master(); m != nil {
			return m
		}
	}
	return c.Master
}

func runElastic(t *testing.T, cell elasticCell) {
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
	reg := obs.NewRegistry()
	cfg.Obs = reg
	c, err := cluster.NewInProcess(tbl, cluster.WithConfig(cfg))
	if err != nil {
		failf(t, cell.Cell, chaos, "NewInProcess: %v", err)
	}
	defer c.Close()

	specs := forestSpecs(cell.Cell, tbl.NumRows())
	trainErr := make(chan error, 1)
	trees := make(chan []*core.Tree, 1)
	go func() {
		got, err := c.Train(specs)
		trees <- got
		trainErr <- err
	}()

	// Drive the churn schedule against the running job.
	wantJoins, wantDrains := 0, 0
	drained := map[int]bool{}
	for _, step := range cell.Steps {
		deadline := time.After(time.Minute)
		for activeMasterOf(c).CompletedTrees() < step.AfterTrees {
			select {
			case err := <-trainErr:
				failf(t, cell.Cell, chaos, "job finished (err=%v) before churn step at %d trees", err, step.AfterTrees)
			case <-deadline:
				failf(t, cell.Cell, chaos, "churn gate (%d trees) not reached within 1m", step.AfterTrees)
			case <-time.After(500 * time.Microsecond):
			}
		}
		if step.Join {
			wantJoins++
			if cell.KillWithJoin {
				// Race the handshake against the takeover: launch the join,
				// fail-stop the primary, and require the retry loop to
				// converge on the promoted master.
				joinErr := make(chan error, 1)
				go func() {
					w, err := c.Join()
					if err == nil && !w.Joined() {
						err = errJoinNotJoined
					}
					joinErr <- err
				}()
				c.KillMaster()
				if err := <-trainErr; err == nil || !strings.Contains(err.Error(), "master stopped") {
					failf(t, cell.Cell, chaos, "killed Train returned %v, want 'master stopped'", err)
				}
				if err := <-joinErr; err != nil {
					failf(t, cell.Cell, chaos, "join racing the failover: %v", err)
				}
				continue
			}
			w, err := c.Join()
			if err != nil {
				failf(t, cell.Cell, chaos, "join: %v", err)
			}
			if !w.Joined() {
				failf(t, cell.Cell, chaos, "join returned nil error but the worker is not admitted")
			}
		} else {
			wantDrains++
			drained[step.Drain] = true
			if err := c.Drain(step.Drain); err != nil {
				failf(t, cell.Cell, chaos, "drain worker %d: %v", step.Drain, err)
			}
		}
	}

	// Collect the forest: from the primary's Train call, or — in the
	// failover-race cell — from the promoted standby.
	var got []*core.Tree
	if cell.KillWithJoin {
		select {
		case <-c.Standby.Done():
		case <-time.After(cfg.JobTimeout + time.Minute):
			failf(t, cell.Cell, chaos, "standby did not finish the job")
		}
		got, err = c.Standby.Result()
		if err != nil {
			failf(t, cell.Cell, chaos, "standby takeover failed: %v", err)
		}
	} else {
		got = <-trees
		if err := <-trainErr; err != nil {
			failf(t, cell.Cell, chaos, "distributed Train through churn: %v", err)
		}
	}

	// The paper's exactness claim must survive the churn.
	for i, spec := range specs {
		serial := core.TrainLocal(tbl, spec.Bag.Rows(), spec.Params)
		if d := core.DiffTrees(serial, got[i]); d != "" {
			failf(t, cell.Cell, chaos, "tree %d diverges from serial through churn:\n%s", i, d)
		}
	}

	// Fleet invariants at quiescence: drained workers hold nothing and are
	// not alive; every column keeps full replication among alive workers;
	// admitted joiners hold real replicas.
	m := activeMasterOf(c)
	alive := map[int]bool{}
	for _, w := range m.AliveWorkers() {
		alive[w] = true
	}
	for w := range drained {
		if alive[w] {
			failf(t, cell.Cell, chaos, "drained worker %d still alive", w)
		}
	}
	p := m.PlacementSnapshot()
	joinerCols := 0
	for col, owners := range p.Owners {
		if len(owners) < cfg.Replicas {
			failf(t, cell.Cell, chaos, "column %d under-replicated after churn: owners %v", col, owners)
		}
		for _, o := range owners {
			if !alive[o] {
				failf(t, cell.Cell, chaos, "column %d owned by non-alive worker %d", col, o)
			}
			if o >= cfg.NumWorkers {
				joinerCols++
			}
		}
	}
	if wantJoins > 0 && joinerCols == 0 {
		failf(t, cell.Cell, chaos, "no column replica landed on any joined worker")
	}

	// Elastic telemetry: the counters account for exactly the schedule, all
	// drains were graceful, and rebalanced columns back the joiners' replicas.
	s := reg.Snapshot().Master
	if cell.KillWithJoin {
		// The handshake may straddle the takeover: the promoted master's
		// fresh admission is what must be counted, at least once.
		if s.Joins < int64(wantJoins) {
			failf(t, cell.Cell, chaos, "telemetry: %d joins, want >= %d", s.Joins, wantJoins)
		}
	} else if s.Joins != int64(wantJoins) {
		failf(t, cell.Cell, chaos, "telemetry: %d joins, want %d", s.Joins, wantJoins)
	}
	if s.Drains != int64(wantDrains) {
		failf(t, cell.Cell, chaos, "telemetry: %d drains, want %d", s.Drains, wantDrains)
	}
	if s.DrainSheds != 0 {
		failf(t, cell.Cell, chaos, "telemetry: %d force-sheds — drains were not graceful", s.DrainSheds)
	}
	if wantJoins > 0 && s.RebalancedColumns < 1 {
		failf(t, cell.Cell, chaos, "telemetry: joins admitted but no columns rebalanced")
	}
	if s.JoinRejects != 0 {
		failf(t, cell.Cell, chaos, "telemetry: %d join rejections on an uncapped fleet", s.JoinRejects)
	}

	if chaos != nil {
		if cell.ExpectFaults && chaos.Faults() == 0 {
			failf(t, cell.Cell, chaos, "plan injected no faults — cell is not testing anything")
		}
		t.Logf("cell %q: seed=%d, %d messages traced, %d faults injected", cell.Name, chaos.Seed(), len(chaos.Trace()), chaos.Faults())
	}
	verifyTelemetry(t, cell.Cell, chaos, reg)
}
