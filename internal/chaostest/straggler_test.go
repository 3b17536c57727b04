package chaostest

import (
	"testing"
	"time"

	"treeserver/internal/cluster"
	"treeserver/internal/obs"
	"treeserver/internal/synth"
	"treeserver/internal/task"
	"treeserver/internal/transport"
)

// Gray-failure cells: a worker that never crashes but turns ~50× slow
// mid-job. Fail-stop detection sees nothing (pongs still arrive), so these
// cells prove the hedging/quarantine layer keeps the models bit-identical to
// the serial trainer while bounding the damage a straggler can do.

// grayLinks gives every link a small base latency so a multiplicative
// degradation has something to scale.
func grayLinks() []transport.LinkFault {
	return []transport.LinkFault{{From: "*", To: "*",
		Delay: 100 * time.Microsecond, Jitter: 100 * time.Microsecond}}
}

// degradeW2 turns worker 2 ~50× slow from its 30th send until its 220th,
// then heals it: the mid-job gray failure the tentpole is about.
func degradeW2() []transport.Degrade {
	return []transport.Degrade{{
		Name: cluster.WorkerName(2), Factor: 50,
		Delay: 6 * time.Millisecond, Jitter: time.Millisecond,
		AfterSends: 30, UntilSends: 800,
	}}
}

func grayCell(name string, seed int64, mut func(*Cell)) Cell {
	cell := Cell{
		Name: name,
		Seed: seed,
		Data: synth.Spec{Name: name, Rows: 1800, NumNumeric: 7, NumCategorical: 2,
			CatLevels: 5, NumClasses: 2, ConceptDepth: 5, LabelNoise: 0.05, Seed: 100 + seed},
		Cluster: cluster.Config{MasterConfig: cluster.MasterConfig{NumWorkers: 5, Replicas: 2,
			Policy:    task.Policy{TauD: 400, TauDFS: 1200, NPool: 8},
			TaskRetry: 600 * time.Millisecond, MaxTaskAttempts: 8}, Compers: 2},
		Plan: transport.FaultPlan{Name: name,
			Links: grayLinks(), Degrades: degradeW2()},
		ExpectFaults: true,
		Trees:        3, Bag: 1400, MaxDepth: 8,
	}
	if mut != nil {
		mut(&cell)
	}
	return cell
}

// TestGrayFailureHedging is the acceptance cell: worker 2 degrades ~50×
// mid-job and recovers; with hedging on, the job must stay bit-identical to
// the serial trainer (Run asserts that), win at least one hedge race, and
// finish within a bounded envelope of the fault-free wall-clock.
func TestGrayFailureHedging(t *testing.T) {
	// Fault-free reference: same cluster shape and hedging config, no faults
	// injected (hedging should simply never trigger).
	baseline := grayCell("gray-baseline", 20, func(c *Cell) {
		c.Cluster.HedgeFactor = 3
		c.Plan = transport.FaultPlan{Name: "gray-baseline", Links: grayLinks()}
		c.ExpectFaults = false
	})
	start := time.Now()
	t.Run(baseline.Name, func(t *testing.T) { Run(t, baseline) })
	faultFree := time.Since(start)

	var snap obs.MasterSnapshot
	degraded := grayCell("gray-hedge", 20, func(c *Cell) {
		c.Cluster.HedgeFactor = 3
		c.Verify = func(t *testing.T, reg *obs.Registry) {
			snap = reg.Snapshot().Master
		}
	})
	start = time.Now()
	t.Run(degraded.Name, func(t *testing.T) { Run(t, degraded) })
	elapsed := time.Since(start)

	if snap.HedgesLaunched < 1 || snap.HedgesWon < 1 {
		t.Fatalf("hedging: %d launched, %d won — want at least one winning hedge under a 50× straggler",
			snap.HedgesLaunched, snap.HedgesWon)
	}
	// The envelope has a fixed grace term so a near-zero baseline on a fast
	// machine cannot make the bound vacuous in the other direction.
	bound := 3*faultFree + 2*time.Second
	if elapsed > bound {
		t.Fatalf("degraded run took %v, exceeding the bounded envelope %v (fault-free %v)",
			elapsed, bound, faultFree)
	}
	t.Logf("fault-free %v, degraded %v; hedges launched=%d won=%d wasted=%d",
		faultFree, elapsed, snap.HedgesLaunched, snap.HedgesWon, snap.HedgesWasted)
}

// TestGrayFailureQuarantine runs the same degradation with straggler
// quarantine on: the slow worker's median-normalised score must drop below
// threshold and open its circuit, steering new placement away from it, while
// the trees stay bit-identical (quarantine only shifts placement preference).
func TestGrayFailureQuarantine(t *testing.T) {
	cell := grayCell("gray-quarantine", 21, func(c *Cell) {
		c.Cluster.Heartbeat = 4 * time.Millisecond
		c.Cluster.QuarantineThreshold = 0.3
		c.Verify = func(t *testing.T, reg *obs.Registry) {
			m := reg.Snapshot().Master
			if m.Quarantines < 1 {
				t.Fatalf("quarantine never opened for a 50× straggler (probes sent: %d)", m.ProbesSent)
			}
			if m.Quarantines > 0 && m.ProbesSent < 1 {
				t.Fatal("quarantine opened but no probation probes were sent")
			}
			t.Logf("quarantines=%d restores=%d probes=%d", m.Quarantines, m.QuarantineRestores, m.ProbesSent)
		}
	})
	Run(t, cell)
}

// TestGrayFailureHedgingOff proves the degradation chaos alone does not break
// equivalence: with HedgeFactor = 0 the per-attempt deadline is the only
// countermeasure and the models must still match the serial trainer exactly.
func TestGrayFailureHedgingOff(t *testing.T) {
	Run(t, grayCell("gray-hedge-off", 22, nil))
}
