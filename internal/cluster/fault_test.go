package cluster

import (
	"reflect"
	"strings"
	"testing"

	"treeserver/internal/core"
	"treeserver/internal/loadbal"
	"treeserver/internal/transport"
)

// Unit tests for the heartbeat failure detector's decision rule, driven by
// injected pong-sequence snapshots (no cluster, no clock).

func TestFailedWorkersLaggingWorkerDetected(t *testing.T) {
	alive := []bool{true, true, true, true}
	// Worker 2 stopped ponging at seq 4; the freshest worker is at 40.
	lastSeq := []int64{40, 39, 4, 38}
	got := failedWorkers(alive, lastSeq, 20)
	if !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("failedWorkers = %v, want [2]", got)
	}
}

func TestFailedWorkersExactBudgetIsNotFailure(t *testing.T) {
	alive := []bool{true, true}
	// Lag of exactly missedProbes stays inside the budget...
	if got := failedWorkers(alive, []int64{41, 21}, 20); got != nil {
		t.Fatalf("lag == budget flagged %v", got)
	}
	// ...one more probe crosses it.
	if got := failedWorkers(alive, []int64{42, 21}, 20); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("lag == budget+1 flagged %v, want [1]", got)
	}
}

func TestFailedWorkersNoDetectionDuringWarmup(t *testing.T) {
	// Until the freshest pong itself clears the budget, nobody is failed —
	// even a worker that has never ponged (seq 0) at startup.
	alive := []bool{true, true, true}
	if got := failedWorkers(alive, []int64{20, 3, 0}, 20); got != nil {
		t.Fatalf("warmup snapshot flagged %v", got)
	}
}

func TestFailedWorkersMasterLagDelaysAllPongsEqually(t *testing.T) {
	// The master's receive queue backing up delays every pong equally: each
	// worker's lastSeq is far behind the probes actually sent, but their
	// relative lag is small. Absolute-lag detection would kill the whole
	// cluster here; the relative rule must keep everyone alive.
	alive := []bool{true, true, true, true}
	probesSent := int64(1000)
	lastSeq := []int64{probesSent - 600, probesSent - 590, probesSent - 605, probesSent - 598}
	if got := failedWorkers(alive, lastSeq, 20); got != nil {
		t.Fatalf("equal master-side lag flagged %v, want none", got)
	}
	// The same absolute sequences with one genuinely dead worker still
	// isolate exactly that worker.
	lastSeq[2] = probesSent - 700
	if got := failedWorkers(alive, lastSeq, 20); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("dead worker among lagged pongs flagged %v, want [2]", got)
	}
}

func TestFailedWorkersIgnoresDeadWorkers(t *testing.T) {
	// Already-failed workers neither anchor the freshest pong nor get
	// re-reported.
	alive := []bool{false, true, true}
	lastSeq := []int64{500, 40, 39} // w0's stale high seq must not count
	if got := failedWorkers(alive, lastSeq, 20); got != nil {
		t.Fatalf("dead worker's seq influenced detection: %v", got)
	}
	// And a dead worker lagging far behind is not reported again.
	lastSeq = []int64{2, 100, 99}
	if got := failedWorkers(alive, lastSeq, 20); got != nil {
		t.Fatalf("dead worker re-reported: %v", got)
	}
}

func TestFailedWorkersMultipleFailures(t *testing.T) {
	alive := []bool{true, true, true, true}
	lastSeq := []int64{100, 2, 100, 5}
	if got := failedWorkers(alive, lastSeq, 20); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("failedWorkers = %v, want [1 3]", got)
	}
}

// --- rereplication and restart-budget unit tests ---

// bareMaster builds an un-started master over a private fabric so the
// locked fault-recovery helpers can be unit-tested directly. Worker
// endpoints exist (sends land in unread mailboxes) but no workers run.
func bareMaster(t *testing.T, numWorkers int, owners map[int][]int) *Master {
	t.Helper()
	net := transport.NewMemNetwork()
	for w := 0; w < numWorkers; w++ {
		net.Endpoint(WorkerName(w))
	}
	m, err := NewMaster(net.Endpoint(MasterName),
		Schema{NumRows: 100, NumCols: len(owners) + 1, Target: len(owners)},
		loadbal.Placement{Owners: owners, NumWorkers: numWorkers},
		MasterConfig{NumWorkers: numWorkers})
	if err != nil {
		t.Fatalf("NewMaster: %v", err)
	}
	return m
}

func TestRereplicateTargetsLeastLoadedAliveWorker(t *testing.T) {
	// Worker 0 dies holding column 0. Among the alive non-holders, worker 3
	// holds nothing and worker 2 holds two columns — the copy must go to 3.
	m := bareMaster(t, 4, map[int][]int{
		0: {0, 1},
		1: {1, 2},
		2: {1, 2},
	})
	m.mu.Lock()
	defer m.mu.Unlock()
	m.alive[0] = false
	if err := m.rereplicateLocked(0); err != nil {
		t.Fatalf("rereplicateLocked: %v", err)
	}
	if got := m.placement.Owners[0]; !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("column 0 owners = %v, want [1 3] (survivor + least-loaded)", got)
	}
}

func TestRereplicateNeverPicksSurvivingReplica(t *testing.T) {
	// Both workers hold column 0; worker 0 dies. The only alive worker is
	// already a replica, so the column degrades to one copy — it must not
	// be "re-replicated" onto the worker that already holds it.
	m := bareMaster(t, 2, map[int][]int{0: {0, 1}})
	m.mu.Lock()
	defer m.mu.Unlock()
	m.alive[0] = false
	if err := m.rereplicateLocked(0); err != nil {
		t.Fatalf("rereplicateLocked: %v", err)
	}
	if got := m.placement.Owners[0]; !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("column 0 owners = %v, want [1] (no duplicate replica)", got)
	}
}

func TestRereplicateLastReplicaLossFailsJob(t *testing.T) {
	// Column 1 lives only on worker 0. Losing it is unrecoverable and the
	// error must name the column.
	m := bareMaster(t, 3, map[int][]int{
		0: {0, 1},
		1: {0},
	})
	m.mu.Lock()
	defer m.mu.Unlock()
	m.alive[0] = false
	err := m.rereplicateLocked(0)
	if err == nil {
		t.Fatal("rereplicateLocked recovered a column with no surviving replica")
	}
	if !strings.Contains(err.Error(), "column 1") || !strings.Contains(err.Error(), "last replica") {
		t.Fatalf("error %q does not name the lost column", err)
	}
}

func TestMaxTreeRestartsFailsJob(t *testing.T) {
	m := bareMaster(t, 2, map[int][]int{0: {0, 1}})
	m.mu.Lock()
	defer m.mu.Unlock()
	a := m.newAssembly(0, TreeSpec{Params: core.Defaults(), Bag: BagSpec{NumRows: 100}})
	m.trees[7] = a

	// Restarts within the budget requeue the root and keep the job alive.
	for i := 0; i < m.cfg.MaxTreeRestarts; i++ {
		m.restartTreeLocked(7)
		if m.jobErr != nil {
			t.Fatalf("restart %d failed the job early: %v", i+1, m.jobErr)
		}
	}
	if a.epoch != m.cfg.MaxTreeRestarts {
		t.Fatalf("epoch %d after %d restarts", a.epoch, m.cfg.MaxTreeRestarts)
	}
	// One more exceeds the budget and must fail the job with a clear error.
	m.restartTreeLocked(7)
	if m.jobErr == nil || !strings.Contains(m.jobErr.Error(), "MaxTreeRestarts") {
		t.Fatalf("jobErr = %v, want MaxTreeRestarts failure", m.jobErr)
	}
}

func TestHeartbeatBudgetValidation(t *testing.T) {
	net := transport.NewMemNetwork()
	m, err := NewMaster(net.Endpoint(MasterName), Schema{}, loadbal.Placement{}, MasterConfig{NumWorkers: 1})
	if err != nil {
		t.Fatalf("NewMaster: %v", err)
	}
	if m.cfg.HeartbeatBudget != heartbeatMissedProbes {
		t.Fatalf("default HeartbeatBudget = %d, want %d", m.cfg.HeartbeatBudget, heartbeatMissedProbes)
	}
	if m.cfg.MaxTreeRestarts != defaultMaxTreeRestarts {
		t.Fatalf("default MaxTreeRestarts = %d, want %d", m.cfg.MaxTreeRestarts, defaultMaxTreeRestarts)
	}
}
