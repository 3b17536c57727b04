package cluster

import (
	"strings"
	"testing"
	"time"

	"treeserver/internal/core"
	"treeserver/internal/dataset"
	"treeserver/internal/obs"
	"treeserver/internal/synth"
)

// TestTelemetryLedgerReconciles trains a forest with a live registry and
// checks the task lifecycle ledger balances at quiescence: every assignment
// the master made was either completed, requeued for another attempt, or
// superseded by a tree restart. It also pins the M_work claim — every worker
// that served the job has measured computation time — and that observation
// does not change the trained model.
func TestTelemetryLedgerReconciles(t *testing.T) {
	tbl := synth.GenerateTrain(synth.Spec{
		Name: "obs", Rows: 5000, NumNumeric: 6, NumCategorical: 2,
		NumClasses: 2, ConceptDepth: 5, LabelNoise: 0.05, Seed: 71,
	})
	reg := obs.NewRegistry()
	cfg := testConfig()
	cfg.Obs = reg
	c := newTestCluster(t, tbl, cfg)
	defer c.Close()

	params := core.Defaults()
	params.MaxDepth = 8
	specs := make([]TreeSpec, 6)
	for i := range specs {
		specs[i] = TreeSpec{Params: params}
	}
	trees, err := c.Train(specs)
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	want := core.TrainLocal(tbl, dataset.AllRows(tbl.NumRows()), params)
	for i, tr := range trees {
		if !tr.Equal(want) {
			t.Fatalf("tree %d differs from serial with telemetry attached", i)
		}
	}

	s := reg.Snapshot()
	m := s.Master

	// Lifecycle ledger: Planned counts per attempt at assignment, so at
	// quiescence after a successful job every assignment is accounted for.
	if m.TasksPlanned <= 0 {
		t.Fatal("no tasks planned")
	}
	if got := m.TasksCompleted + m.TasksRetried + m.TasksSuperseded; got != m.TasksPlanned {
		t.Fatalf("ledger: completed %d + retried %d + superseded %d = %d, want planned %d",
			m.TasksCompleted, m.TasksRetried, m.TasksSuperseded, got, m.TasksPlanned)
	}
	if m.TasksConfirmed > m.TasksPlanned {
		t.Fatalf("confirms %d exceed plans %d", m.TasksConfirmed, m.TasksPlanned)
	}
	if m.RowsPlanned <= 0 || m.MaxAttempt < 1 {
		t.Fatalf("rows planned %d, max attempt %d", m.RowsPlanned, m.MaxAttempt)
	}

	// B_plan: the deque saw pushes and its high-water marks are consistent
	// with the configured pool bound.
	if m.PushesBFS+m.PushesDFS <= 0 {
		t.Fatal("no B_plan pushes recorded")
	}
	if m.PoolHighWater <= 0 || m.PoolHighWater > int64(cfg.Policy.NPool)*int64(len(specs)) {
		t.Fatalf("pool high water %d outside (0, n_pool x trees]", m.PoolHighWater)
	}
	if m.DequeHighWater <= 0 {
		t.Fatal("deque high water never moved")
	}

	// M_work: every alive worker must have measured computation time, and
	// the matrix must align with the workers slice.
	mwork := s.MWork()
	if len(mwork) != cfg.NumWorkers || len(s.Workers) != cfg.NumWorkers {
		t.Fatalf("M_work has %d rows for %d workers", len(mwork), cfg.NumWorkers)
	}
	for i, row := range mwork {
		if row[0] <= 0 {
			t.Fatalf("worker %d measured Comp is zero", s.Workers[i].ID)
		}
		if s.Workers[i].Jobs <= 0 {
			t.Fatalf("worker %d recorded no comper jobs", s.Workers[i].ID)
		}
	}

	// Transport: the decorator saw traffic on master->worker links with
	// nonzero byte counts, broken out by message type.
	if len(s.Links) == 0 || len(s.Messages) == 0 {
		t.Fatalf("no link/message counters (%d links, %d message types)", len(s.Links), len(s.Messages))
	}
	var bytes int64
	for _, l := range s.Links {
		if l.Msgs <= 0 || l.Bytes <= 0 {
			t.Fatalf("link %s->%s has %d msgs / %d bytes", l.From, l.To, l.Msgs, l.Bytes)
		}
		bytes += l.Bytes
	}
	if bytes <= 0 {
		t.Fatal("no bytes counted on any link")
	}

	// The human-readable report must render the paper's concepts.
	rep := s.Report()
	for _, want := range []string{"B_plan", "M_work", "tasks", "split kernels"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q section:\n%s", want, rep)
		}
	}
}

// TestTelemetryLedgerBalancesAfterCrash runs the fault-recovery path with a
// live registry: the revocation pass must account for every in-flight
// assignment it revokes (retried or superseded), keeping the ledger exact.
func TestTelemetryLedgerBalancesAfterCrash(t *testing.T) {
	tbl := synth.GenerateTrain(synth.Spec{
		Name: "obscrash", Rows: 6000, NumNumeric: 8, NumClasses: 2,
		ConceptDepth: 6, LabelNoise: 0.05, Seed: 72,
	})
	reg := obs.NewRegistry()
	cfg := testConfig()
	cfg.NumWorkers = 5
	cfg.Heartbeat = 20 * time.Millisecond
	cfg.JobTimeout = 2 * time.Minute
	cfg.Obs = reg
	c := newTestCluster(t, tbl, cfg)
	defer c.Close()

	params := core.Defaults()
	params.MaxDepth = 8
	specs := make([]TreeSpec, 8)
	for i := range specs {
		specs[i] = TreeSpec{Params: params}
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		c.CrashWorker(2)
	}()
	trees, err := c.Train(specs)
	if err != nil {
		t.Fatalf("train with crash: %v", err)
	}
	want := core.TrainLocal(tbl, dataset.AllRows(tbl.NumRows()), params)
	for i, tr := range trees {
		if !tr.Equal(want) {
			t.Fatalf("tree %d differs from serial after recovery", i)
		}
	}

	m := reg.Snapshot().Master
	if got := m.TasksCompleted + m.TasksRetried + m.TasksSuperseded; got != m.TasksPlanned {
		t.Fatalf("ledger after crash: completed %d + retried %d + superseded %d = %d, want planned %d",
			m.TasksCompleted, m.TasksRetried, m.TasksSuperseded, got, m.TasksPlanned)
	}
	// Only surviving workers can carry measured work; the dead worker's row
	// stops growing but stays in the snapshot.
	alive := map[int]bool{}
	for _, w := range c.Master.AliveWorkers() {
		alive[w] = true
	}
	s := reg.Snapshot()
	for i, row := range s.MWork() {
		if alive[s.Workers[i].ID] && row[0] <= 0 {
			t.Fatalf("alive worker %d measured no computation", s.Workers[i].ID)
		}
	}
}

// TestNewInProcessValidation pins the construction errors that used to be
// silent defaults or downstream panics.
func TestNewInProcessValidation(t *testing.T) {
	tbl := synth.GenerateTrain(synth.Spec{Name: "val", Rows: 200, NumNumeric: 3, NumClasses: 2, Seed: 73})

	if _, err := NewInProcess(nil); err == nil {
		t.Fatal("nil table accepted")
	}
	// Compers is the one count NewInProcess checks itself; the master's
	// checks are pinned by TestMasterConfigValidate.
	if _, err := NewInProcess(tbl, WithCompers(-2)); err == nil {
		t.Fatal("negative Compers accepted")
	}
	// A negative count must reach the check rather than be defaulted away.
	if _, err := NewInProcess(tbl, WithWorkers(-1)); err == nil {
		t.Fatal("negative Workers accepted")
	}

	// Defaulted Replicas must clamp to Workers rather than error.
	c, err := NewInProcess(tbl, WithWorkers(1), WithCompers(1))
	if err != nil {
		t.Fatalf("Workers=1 with defaulted replicas: %v", err)
	}
	c.Close()
}

// TestAblationModeString pins the enum's debug names.
func TestAblationModeString(t *testing.T) {
	cases := map[AblationMode]string{
		AblationNone:       "none",
		AblationRoundRobin: "round-robin",
		AblationRelayRows:  "relay-rows",
		AblationMode(7):    "AblationMode(7)",
	}
	for mode, want := range cases {
		if got := mode.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", uint8(mode), got, want)
		}
	}
}
