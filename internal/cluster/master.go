package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"treeserver/internal/checkpoint"
	"treeserver/internal/core"
	"treeserver/internal/dataset"
	"treeserver/internal/impurity"
	"treeserver/internal/loadbal"
	"treeserver/internal/obs"
	"treeserver/internal/split"
	"treeserver/internal/task"
	"treeserver/internal/transport"
)

// TreeSpec describes one decision tree for the master to train.
type TreeSpec struct {
	// Params are the model hyperparameters. Candidates hold original table
	// column indexes (nil = all non-target columns).
	Params core.Params
	// Bag selects the root rows; the zero value uses all rows.
	Bag BagSpec
}

// MasterConfig tunes the master's scheduling and fault handling. It is the
// one configuration of a training job: NewMaster takes it directly, and the
// in-process Config embeds it.
type MasterConfig struct {
	// NumWorkers is the number of worker machines (paper: 15).
	NumWorkers int
	// Policy holds τ_D, τ_dfs and n_pool; the zero value uses the paper's
	// defaults.
	Policy task.Policy
	// Heartbeat enables worker failure detection at this probe interval;
	// zero disables it (a worker is declared failed after 3 missed probes).
	Heartbeat time.Duration
	// Ablation selects the load-balancing or row-relay ablation (default
	// AblationNone, the full design).
	Ablation AblationMode
	// JobTimeout bounds Train; zero means no limit.
	JobTimeout time.Duration
	// TaskRetry enables master-side task re-execution: a task with no result
	// after TaskRetry (doubled per attempt) is revoked and requeued, up to
	// MaxTaskAttempts. It is the recovery of last resort for messages lost in
	// the fabric — transport retries cannot see a silently dropped delivery.
	// Zero disables re-execution.
	TaskRetry time.Duration
	// MaxTaskAttempts bounds executions per task (default 5 when TaskRetry
	// is set); exhausting it fails the job.
	MaxTaskAttempts int
	// HeartbeatBudget overrides the failure-detection budget: a worker is
	// declared failed when its freshest pong lags the cluster's freshest pong
	// by more than this many probes (default 20; negative is rejected).
	HeartbeatBudget int
	// MaxTreeRestarts bounds delegate-loss restarts per tree (default 8);
	// a tree exceeding it fails the job instead of restarting forever.
	MaxTreeRestarts int
	// CheckpointDir, when non-empty, enables durable master checkpointing:
	// a full snapshot at job start and end, an appended record per completed
	// tree, and (optionally) periodic snapshots. A restarted master recovers
	// the job from this directory via Resume.
	CheckpointDir string
	// CheckpointEvery adds periodic full snapshots between tree-completion
	// boundaries (0 = tree boundaries only). Only meaningful with
	// CheckpointDir set.
	CheckpointEvery time.Duration
	// StandbyName, when non-empty, enables the hot standby: every checkpoint
	// record is streamed to this transport endpoint as it is written locally,
	// and the master renews a failover lease against it. Streaming works with
	// or without CheckpointDir — a standby-backed cluster can run diskless.
	// The standby endpoint must exist before the master starts.
	StandbyName string
	// LeaseTTL is the failover lease duration (default 2s when StandbyName is
	// set): the primary renews at TTL/3 and the standby takes over once the
	// lease it watches has lapsed.
	LeaseTTL time.Duration
	// AdvertiseAddr, when non-empty, rides in rejoin requests so TCP workers
	// can repoint their master peer at a promoted standby's listen address.
	// In-memory fabrics rebind by name and leave it empty.
	AdvertiseAddr string
	// RejoinTimeout bounds the worker rejoin handshake during Resume
	// (default 10s). Workers that miss the deadline are treated as failed.
	RejoinTimeout time.Duration
	// Replicas is the column replication factor k the Resume reconciliation
	// restores (default 2, clamped to the number of rejoined workers).
	Replicas int
	// HedgeFactor enables hedged task execution: an attempt whose elapsed
	// time exceeds HedgeFactor × the fleet latency estimate for its size gets
	// a duplicate attempt on a disjoint set of healthy workers; the first
	// complete attempt wins and the loser is dropped. Zero disables hedging
	// (behaviour is then identical to a build without it). Typical: 3–8.
	HedgeFactor float64
	// QuarantineThreshold enables straggler quarantine: a worker whose
	// median-normalised health score falls below the threshold is excluded
	// from new placement until a probe round-trip returns at fleet-typical
	// speed. Zero disables quarantine. Typical: 0.1–0.5.
	QuarantineThreshold float64
	// MaxQuarantined bounds simultaneously quarantined workers (default
	// max(1, NumWorkers/4)), so scoring outliers can never drain placement
	// capacity; column reachability is additionally protected by placement
	// fallback, which bypasses quarantine rather than orphan a column.
	MaxQuarantined int
	// SplitMode selects exact (default) or histogram-approximate split
	// finding for column tasks; MaxBins bounds the hist bins per column
	// (default 64).
	SplitMode SplitMode
	MaxBins   int
	// FleetCap bounds the fleet size live joins may grow to (0 = unbounded).
	// A join request that would push the fleet past the cap is rejected
	// non-retryably. Must be zero or at least NumWorkers.
	FleetCap int
	// Obs, when non-nil, receives the master's scheduling telemetry (B_plan
	// pushes, pool occupancy, task lifecycle spans).
	Obs *obs.Registry
}

// validate rejects configurations that would otherwise default or fail
// silently. It runs on the caller's values, before any default is filled:
// NewMaster calls it, and NewInProcess calls it before any worker starts.
func (c MasterConfig) validate() error {
	switch {
	case c.NumWorkers < 0:
		return fmt.Errorf("cluster: NumWorkers %d is negative", c.NumWorkers)
	case c.Replicas < 0:
		return fmt.Errorf("cluster: Replicas %d is negative", c.Replicas)
	case c.Replicas > c.NumWorkers:
		return fmt.Errorf("cluster: Replicas %d exceeds NumWorkers %d — a column cannot have more replicas than machines", c.Replicas, c.NumWorkers)
	case c.FleetCap < 0:
		return fmt.Errorf("cluster: FleetCap %d is negative", c.FleetCap)
	case c.FleetCap > 0 && c.FleetCap < c.NumWorkers:
		return fmt.Errorf("cluster: FleetCap %d is below the initial fleet of %d workers", c.FleetCap, c.NumWorkers)
	case c.Ablation >= ablationModes:
		return fmt.Errorf("cluster: unknown AblationMode(%d)", uint8(c.Ablation))
	case c.HeartbeatBudget < 0:
		return fmt.Errorf("cluster: HeartbeatBudget %d is negative", c.HeartbeatBudget)
	case c.MaxTreeRestarts < 0:
		return fmt.Errorf("cluster: MaxTreeRestarts %d is negative", c.MaxTreeRestarts)
	case c.CheckpointEvery != 0 && c.CheckpointDir == "" && c.StandbyName == "":
		return fmt.Errorf("cluster: CheckpointEvery set without CheckpointDir or StandbyName")
	case c.LeaseTTL < 0:
		return fmt.Errorf("cluster: LeaseTTL %v is negative", c.LeaseTTL)
	case c.LeaseTTL > 0 && c.StandbyName == "":
		return fmt.Errorf("cluster: LeaseTTL set without StandbyName")
	case c.HedgeFactor < 0:
		return fmt.Errorf("cluster: HedgeFactor %g is negative", c.HedgeFactor)
	case c.QuarantineThreshold < 0 || c.QuarantineThreshold >= 1:
		return fmt.Errorf("cluster: QuarantineThreshold %g outside [0,1)", c.QuarantineThreshold)
	case c.MaxQuarantined < 0:
		return fmt.Errorf("cluster: MaxQuarantined %d is negative", c.MaxQuarantined)
	case c.SplitMode >= splitModes:
		return fmt.Errorf("cluster: unknown SplitMode(%d)", uint8(c.SplitMode))
	case c.MaxBins < 0 || c.MaxBins == 1 || c.MaxBins > 60000:
		return fmt.Errorf("cluster: MaxBins %d must be 0 (default) or in [2, 60000]", c.MaxBins)
	}
	return nil
}

// plan is a task not yet assigned to workers (an element of B_plan).
type plan struct {
	id      task.ID
	tree    int32
	node    *core.Node
	depth   int
	size    int
	parent  ParentRef
	kind    task.Kind
	rows    []int32 // relay-mode only
	tries   int     // extra-trees column redraws
	epoch   int     // assembly epoch; a restarted tree invalidates old plans
	attempt int     // attempt fence; bumped per shipped attempt, hedges included
	spawns  int     // full (non-hedge) executions; drives MaxTaskAttempts and backoff
}

// attemptState is one outstanding execution of a task. A task normally has a
// single attempt; hedging adds duplicates that race it, and the first
// complete attempt wins while the losers' late messages die on their stale
// attempt numbers.
type attemptState struct {
	attempt    int
	hedge      bool
	charges    []loadbal.Charge
	involved   map[int]bool
	keyWorker  int          // subtree-task key worker; -1 for column tasks
	got        map[int]bool // workers whose result arrived (dedups retries)
	expected   int
	received   int
	best       split.Candidate
	bestWorker int
	stats      NodeStats
	statsSet   bool
	assignedAt time.Time // when this attempt's plans were shipped
}

// shipSpec captures everything assignAndSend resolved about the task's work
// content — candidate columns, extra-trees draw, subtree params — so a hedged
// duplicate ships byte-identical work and both attempts compute the same
// result.
type shipSpec struct {
	cols          []int
	random        bool
	drawSeed      int64
	subtreeParams core.Params
	measure       impurity.Measure
	numClasses    int
	maxExh        int
	hist          bool // histogram-mode column task
}

// mtask is the master-side task table entry: the plan, the work spec, and
// the set of outstanding attempts racing to complete it.
type mtask struct {
	plan        *plan
	spec        shipSpec
	attempts    map[int]*attemptState
	winner      int       // confirmed attempt number (column tasks); 0 = undecided
	hedged      bool      // a hedge was already launched for this execution round
	assignedAt  time.Time // first attempt ship time — the retry-deadline base
	confirmedAt time.Time // when the winning split was confirmed (column tasks)
}

// assembly tracks one tree under construction.
type assembly struct {
	index    int // slot in the job's result slice
	spec     TreeSpec
	root     *core.Node
	features []int
	rng      *rand.Rand // extra-trees column draws
	measure  impurity.Measure
	epoch    int // bumped on fault-recovery restart
}

// Master is the TreeServer master: it owns tree disassembly, the B_plan
// deque, the task table, worker assignment and tree reassembly. It never
// touches row data (Section V).
type Master struct {
	ep     transport.Endpoint
	cfg    MasterConfig
	schema Schema

	placement loadbal.Placement
	matrix    *loadbal.Matrix
	bplan     *task.Deque[*plan]
	prog      *task.Progress
	obs       *obs.MasterObs // nil when telemetry is disabled

	mu           sync.Mutex
	tasks        map[task.ID]*mtask
	trees        map[int32]*assembly
	pendingTrees []*assembly
	active       int
	nextTaskID   task.ID
	nextTreeID   int32
	rrCounter    int

	results   []*core.Tree
	remaining int
	jobErr    error
	jobDone   chan struct{}
	jobMu     sync.Mutex

	// Durable checkpointing (nil/zero when CheckpointDir is unset). gen
	// fences task IDs across master incarnations: a resumed master allocates
	// IDs from gen<<40, so results a pre-crash worker emits for old task IDs
	// can never match a post-restart task table entry.
	ck       *checkpoint.Writer
	gen      int64
	jobSpecs []TreeSpec

	// sink is where checkpoint records go: the file writer, the standby
	// stream, both, or nil when neither is configured. streamCh decouples
	// record emission (under m.mu) from fabric sends; lease is the failover
	// lease machine (nil without a standby), guarded by leaseMu because the
	// lease and renew loops race the recv loop's ack handling.
	sink       checkpoint.Sink
	streamCh   chan CkptRecordMsg
	streamSent atomic.Int64
	lease      *leaseMachine
	leaseMu    sync.Mutex

	// Rejoin handshake state (only non-nil while Resume is collecting).
	rejoinGen     int64
	rejoinReports map[int][]int
	rejoinCh      chan struct{}

	alive    []bool
	lastPong []time.Time
	lastSeq  []int64

	// Elastic-fleet state. fleetSize atomically mirrors cfg.NumWorkers so
	// the unlocked loops (heartbeat pings, shutdown broadcast, rejoin) see
	// live fleet growth; hbSeq is the heartbeat probe sequence, kept under
	// m.mu so an admitted joiner can start at the current value and get a
	// full lag budget from the failure detector; draining cordons workers
	// mid-drain (composed into healthMask); joins holds in-flight join
	// handshakes; targetY retains the last SetTarget payload so a joiner
	// can be caught up mid-boosting.
	fleetSize  atomic.Int64
	hbSeq      int64
	draining   []bool
	joins      map[int]*joinState
	targetY    []float64
	copyLanded map[[2]int]bool // (worker, col) column copies acknowledged

	// Gray-failure tolerance (nil unless HedgeFactor or QuarantineThreshold
	// is set). healthMask is the cached quarantine preference handed to the
	// load balancer: nil when every worker is in good standing.
	health     *healthTracker
	healthMask []bool

	targetSeq   int64
	targetAcks  map[int]bool
	targetAckCh chan struct{}
	targetWant  int

	// Hist-mode bin state: the merged immutable bins per feature column,
	// plus the transient proposal/ack collection of the quorum round.
	binSeq    int64
	binsReady bool
	bins      map[int]split.Bins
	binProps  map[int]*BinProposalMsg
	binPropCh chan struct{}
	binAcks   map[int]bool
	binAckCh  chan struct{}
	binWant   int

	stop     chan struct{}
	wg       sync.WaitGroup
	stopOnce sync.Once
}

// NewMaster builds a master over the given endpoint. placement must match
// the columns actually loaded on the workers. With CheckpointDir set it also
// opens (creating if necessary) the checkpoint directory; a directory that
// cannot be opened is an error up front, not a silent loss of durability.
func NewMaster(ep transport.Endpoint, schema Schema, placement loadbal.Placement, cfg MasterConfig) (*Master, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Policy == (task.Policy{}) {
		cfg.Policy = task.DefaultPolicy()
	}
	if cfg.HeartbeatBudget == 0 {
		cfg.HeartbeatBudget = heartbeatMissedProbes
	}
	if cfg.MaxTreeRestarts == 0 {
		cfg.MaxTreeRestarts = defaultMaxTreeRestarts
	}
	if cfg.MaxQuarantined == 0 {
		cfg.MaxQuarantined = max(1, cfg.NumWorkers/4)
	}
	if cfg.SplitMode == SplitHist && cfg.MaxBins == 0 {
		cfg.MaxBins = 64
	}
	if cfg.StandbyName != "" && cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	// Own the Kinds slice: SetTarget mutates it in place, and a master built
	// by a promoted standby shares the caller's backing array with the old
	// incarnation otherwise.
	schema.Kinds = append([]dataset.Kind(nil), schema.Kinds...)
	m := &Master{
		ep: ep, cfg: cfg, schema: schema,
		placement: placement,
		matrix:    loadbal.NewMatrix(cfg.NumWorkers),
		bplan:     &task.Deque[*plan]{},
		prog:      task.NewProgress(),
		obs:       cfg.Obs.Master(),
		tasks:     map[task.ID]*mtask{},
		trees:     map[int32]*assembly{},
		alive:     make([]bool, cfg.NumWorkers),
		lastPong:  make([]time.Time, cfg.NumWorkers),
		lastSeq:   make([]int64, cfg.NumWorkers),
		draining:  make([]bool, cfg.NumWorkers),
		joins:     map[int]*joinState{},
		stop:      make(chan struct{}),
	}
	m.fleetSize.Store(int64(cfg.NumWorkers))
	for i := range m.alive {
		m.alive[i] = true
		m.lastPong[i] = time.Now()
	}
	if cfg.HedgeFactor > 0 || cfg.QuarantineThreshold > 0 {
		m.health = newHealthTracker(cfg.NumWorkers)
	}
	var sinks []checkpoint.Sink
	if cfg.CheckpointDir != "" {
		ck, err := checkpoint.NewWriter(cfg.CheckpointDir)
		if err != nil {
			return nil, err
		}
		m.ck = ck
		sinks = append(sinks, ck)
	}
	if cfg.StandbyName != "" {
		m.streamCh = make(chan CkptRecordMsg, streamBuffer)
		m.lease = newLeaseMachine(cfg.LeaseTTL)
		sinks = append(sinks, checkpoint.NewStreamSink(m.emitRecordLocked))
	}
	m.sink = checkpoint.MultiSink(sinks...)
	return m, nil
}

// Start launches the master's main and receiving threads (θ_main, θ_recv)
// and, when configured, the heartbeat prober.
func (m *Master) Start() {
	m.wg.Add(2)
	go m.mainLoop()
	go m.recvLoop()
	if m.cfg.Heartbeat > 0 {
		m.wg.Add(1)
		go m.heartbeatLoop()
	}
	if m.cfg.TaskRetry > 0 {
		m.wg.Add(1)
		go m.retryLoop()
	}
	if m.sink != nil && m.cfg.CheckpointEvery > 0 {
		m.wg.Add(1)
		go m.checkpointLoop()
	}
	if m.health != nil {
		m.wg.Add(1)
		go m.healthLoop()
	}
	if m.cfg.StandbyName != "" {
		m.wg.Add(2)
		go m.streamLoop()
		go m.leaseLoop()
	}
}

// Stop shuts the master down and notifies workers to terminate.
func (m *Master) Stop() {
	m.stopOnce.Do(func() {
		close(m.stop)
		for w := 0; w < m.fleet(); w++ {
			_ = m.ep.Send(WorkerName(w), ShutdownMsg{})
		}
		m.ep.Close()
	})
	m.wg.Wait()
	if m.sink != nil {
		m.sink.Close()
	}
}

// Kill simulates a master crash: loops stop and the endpoint dies without any
// shutdown notice to the workers, which keep their column shards and target
// column. Only the checkpoint file handles are released (every checkpoint
// write is already fsynced, so closing adds no durability a crash would lack)
// — a replacement master recovers the job via Resume.
func (m *Master) Kill() {
	m.stopOnce.Do(func() {
		close(m.stop)
		m.ep.Close()
	})
	m.wg.Wait()
	if m.sink != nil {
		m.sink.Close()
	}
}

// CompletedTrees reports how many of the current job's trees are finished —
// the probe crash-recovery tests use to time a mid-job master kill.
func (m *Master) CompletedTrees() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, t := range m.results {
		if t != nil {
			n++
		}
	}
	return n
}

// TransportStats exposes the master's traffic counters — the quantity the
// Section-V design is measured by.
func (m *Master) TransportStats() transport.Stats { return m.ep.Stats() }

// WorkloadSnapshot returns the current M_work contents.
func (m *Master) WorkloadSnapshot() [][3]float64 { return m.matrix.Snapshot() }

// Train runs one job: it trains every spec'd tree (at most n_pool under
// construction at a time) and returns them in spec order. Train serialises
// concurrent callers.
func (m *Master) Train(specs []TreeSpec) ([]*core.Tree, error) {
	m.jobMu.Lock()
	defer m.jobMu.Unlock()
	if len(specs) == 0 {
		return nil, nil
	}
	if m.cfg.SplitMode == SplitHist {
		// Bins are proposed once per cluster and survive SetTarget rounds —
		// they discretise feature columns, which never change.
		if err := m.ensureBins(); err != nil {
			return nil, err
		}
	}

	m.mu.Lock()
	m.results = make([]*core.Tree, len(specs))
	m.remaining = len(specs)
	m.jobErr = nil
	m.jobDone = make(chan struct{})
	m.jobSpecs = specs
	// The initial snapshot makes the job spec itself durable before any task
	// is planned: a master killed a microsecond later already resumes.
	m.writeSnapshotLocked()
	for i, spec := range specs {
		m.pendingTrees = append(m.pendingTrees, m.newAssembly(i, spec))
	}
	done := m.jobDone
	m.mu.Unlock()

	return m.awaitJob(done)
}

// awaitJob blocks until the current job completes (or times out / the master
// stops) and returns its result, writing the final snapshot on success.
func (m *Master) awaitJob(done chan struct{}) ([]*core.Tree, error) {
	if m.cfg.JobTimeout > 0 {
		select {
		case <-done:
		case <-time.After(m.cfg.JobTimeout):
			return nil, fmt.Errorf("cluster: job timed out after %v", m.cfg.JobTimeout)
		case <-m.stop:
			return nil, fmt.Errorf("cluster: master stopped")
		}
	} else {
		select {
		case <-done:
		case <-m.stop:
			return nil, fmt.Errorf("cluster: master stopped")
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if m.jobErr != nil {
		return nil, m.jobErr
	}
	// The final snapshot compacts the append log: a restart after this point
	// restores every tree from one record and re-trains nothing.
	m.writeSnapshotLocked()
	return m.results, nil
}

func (m *Master) newAssembly(index int, spec TreeSpec) *assembly {
	if spec.Bag.NumRows == 0 {
		spec.Bag.NumRows = m.schema.NumRows
	}
	features := spec.Params.Candidates
	if features == nil {
		features = make([]int, 0, m.schema.NumCols-1)
		for c := 0; c < m.schema.NumCols; c++ {
			if c != m.schema.Target {
				features = append(features, c)
			}
		}
	}
	spec.Params.Candidates = features
	measure := spec.Params.Measure
	if m.schema.Task == dataset.Regression {
		measure = impurity.Variance
	} else if !measure.ForClassification() {
		measure = impurity.Gini
	}
	spec.Params.Measure = measure
	if spec.Params.MinLeaf < 1 {
		spec.Params.MinLeaf = 1
	}
	return &assembly{
		index: index, spec: spec, features: features,
		rng: rand.New(rand.NewSource(spec.Params.Seed ^ 0x5eed)), measure: measure,
	}
}

// --- θ_main: admission and plan assignment ---

func (m *Master) mainLoop() {
	defer m.wg.Done()
	for {
		select {
		case <-m.stop:
			return
		default:
		}
		m.mu.Lock()
		for m.active < m.cfg.Policy.NPool && len(m.pendingTrees) > 0 {
			a := m.pendingTrees[0]
			m.pendingTrees = m.pendingTrees[1:]
			m.admitTreeLocked(a)
		}
		m.mu.Unlock()

		p, ok := m.bplan.PopHead()
		if !ok {
			// The paper's θ_main sleeps 100 µs between probes of B_plan.
			time.Sleep(100 * time.Microsecond)
			continue
		}
		m.obs.SetDequeDepth(m.bplan.Len())
		m.assignAndSend(p)
	}
}

func (m *Master) admitTreeLocked(a *assembly) {
	tid := m.nextTreeID
	m.nextTreeID++
	m.trees[tid] = a
	m.active++
	size := a.spec.Bag.Size()
	a.root = &core.Node{Depth: 0, N: size}
	root := &plan{
		id: m.newTaskIDLocked(), tree: tid, node: a.root,
		depth: 0, size: size,
		parent: ParentRef{Worker: -1, Bag: a.spec.Bag},
		kind:   m.cfg.Policy.KindFor(size),
		epoch:  a.epoch,
	}
	if m.cfg.Ablation == AblationRelayRows {
		root.rows = a.spec.Bag.Rows()
	}
	m.prog.Add(tid, 1)
	m.bplan.Push(root, size, m.cfg.Policy)
	m.obs.SetPool(m.active)
	m.obs.PlanPushed(m.cfg.Policy.DepthFirst(size))
	m.obs.SetDequeDepth(m.bplan.Len())
}

func (m *Master) newTaskIDLocked() task.ID {
	m.nextTaskID++
	return m.nextTaskID
}

// assignAndSend computes the plan's worker assignment (Section VI) and ships
// the plan messages.
func (m *Master) assignAndSend(p *plan) {
	m.mu.Lock()
	a, ok := m.trees[p.tree]
	if !ok || a.epoch != p.epoch { // tree restarted or completed during recovery
		m.mu.Unlock()
		return
	}
	cols := a.spec.Params.Candidates
	randomDraw := a.spec.Params.ExtraTrees
	var drawSeed int64
	if randomDraw && p.kind == task.ColumnTask {
		cols = []int{a.features[a.rng.Intn(len(a.features))]}
		drawSeed = a.rng.Int63()
	}
	subtreeParams := a.spec.Params
	if randomDraw {
		subtreeParams.Seed = a.rng.Int63()
	}
	elig := loadbal.Eligibility{
		Alive:     append([]bool(nil), m.alive...),
		Preferred: m.healthMask,
	}
	var assignment loadbal.Assignment
	if m.cfg.Ablation == AblationRoundRobin {
		assignment = loadbal.AssignRoundRobin(m.placement, cols, &m.rrCounter, p.kind == task.SubtreeTask)
	} else if p.kind == task.SubtreeTask {
		assignment = loadbal.AssignSubtree(m.matrix, m.placement, cols, p.size, p.parent.Worker, elig)
	} else {
		assignment = loadbal.AssignColumns(m.matrix, m.placement, cols, p.size, p.parent.Worker, elig)
	}

	p.attempt++
	p.spawns++
	attempt := p.attempt // capture under the lock; retryLoop may bump it later
	spec := shipSpec{
		cols: cols, random: randomDraw, drawSeed: drawSeed,
		subtreeParams: subtreeParams,
		measure:       a.measure, numClasses: m.schema.NumClasses,
		maxExh: a.spec.Params.MaxExhaustiveLevels,
		// Extra-trees draws stay exact: a single random threshold needs the
		// raw values, not bins.
		hist: m.cfg.SplitMode == SplitHist && p.kind == task.ColumnTask && !randomDraw,
	}
	now := time.Now()
	as := newAttemptState(p.kind, attempt, false, assignment, now)
	entry := &mtask{
		plan: p, spec: spec,
		attempts:   map[int]*attemptState{attempt: as},
		assignedAt: now,
	}
	m.tasks[p.id] = entry
	m.obs.TaskPlanned(p.size, attempt)
	m.mu.Unlock()

	m.shipAttempt(p, spec, attempt, assignment)
}

// newAttemptState builds the bookkeeping for one shipped attempt from its
// worker assignment.
func newAttemptState(kind task.Kind, attempt int, hedge bool, assignment loadbal.Assignment, now time.Time) *attemptState {
	as := &attemptState{
		attempt: attempt, hedge: hedge, charges: assignment.Charges,
		involved: map[int]bool{}, got: map[int]bool{},
		keyWorker: -1, assignedAt: now,
	}
	if kind == task.SubtreeTask {
		as.expected = 1
		as.keyWorker = assignment.KeyWorker
		as.involved[assignment.KeyWorker] = true
		for _, w := range assignment.ColumnServer {
			as.involved[w] = true
		}
	} else {
		perWorker := assignment.PerWorkerColumns()
		as.expected = len(perWorker)
		for w := range perWorker {
			as.involved[w] = true
		}
	}
	return as
}

// shipAttempt sends one attempt's plan messages. Called without m.mu held; a
// hedged duplicate ships the same spec as the original, so both attempts
// compute identical results.
func (m *Master) shipAttempt(p *plan, spec shipSpec, attempt int, assignment loadbal.Assignment) {
	if p.kind == task.SubtreeTask {
		m.send(assignment.KeyWorker, SubtreePlanMsg{
			Task: p.id, Attempt: attempt, Tree: p.tree, Depth: p.depth, Size: p.size,
			Parent: p.parent, Params: spec.subtreeParams, ColServer: assignment.ColumnServer,
			Rows: p.rows,
		})
		return
	}
	for w, wcols := range assignment.PerWorkerColumns() {
		m.send(w, ColumnPlanMsg{
			Task: p.id, Attempt: attempt, Tree: p.tree, Depth: p.depth, Size: p.size,
			Cols: wcols, Parent: p.parent,
			Measure: spec.measure, NumClasses: spec.numClasses, MaxExh: spec.maxExh,
			Random: spec.random, RandomSeed: spec.drawSeed,
			Hist: spec.hist,
			Rows: p.rows,
		})
	}
}

// send ships a control message with bounded retry: transient fabric errors
// are retried under the default backoff policy, permanent ones (peer crashed,
// endpoint closed) are left to the fault-recovery path. Deliveries the fabric
// silently loses are recovered by task re-execution (retryLoop), not here.
func (m *Master) send(worker int, payload any) {
	_ = transport.SendWithRetry(m.ep, WorkerName(worker), payload, transport.DefaultRetryPolicy())
}

// --- θ_recv: result processing and tree assembly ---

func (m *Master) recvLoop() {
	defer m.wg.Done()
	for {
		env, ok := m.ep.Recv()
		if !ok {
			// Distinguish orderly shutdown from the endpoint dying under us:
			// a standby takeover rebinds the master's transport name, which
			// closes this incarnation's mailbox. Without the check the old
			// primary would sit in awaitJob until the job timeout.
			select {
			case <-m.stop:
			default:
				m.fence()
			}
			return
		}
		switch msg := env.Payload.(type) {
		case ColumnResultMsg:
			m.handleColumnResult(msg)
		case SplitDoneMsg:
			m.handleSplitDone(msg)
		case SubtreeResultMsg:
			m.handleSubtreeResult(msg)
		case PongMsg:
			m.mu.Lock()
			if msg.Worker >= 0 && msg.Worker < len(m.lastPong) {
				m.lastPong[msg.Worker] = time.Now()
				if msg.Seq > m.lastSeq[msg.Worker] {
					m.lastSeq[msg.Worker] = msg.Seq
				}
				m.health.PongReceived(msg.Worker, msg.Seq, time.Now())
			}
			m.mu.Unlock()
		case ProbeAckMsg:
			m.handleProbeAck(msg)
		case TargetAckMsg:
			m.handleTargetAck(msg)
		case BinProposalMsg:
			m.handleBinProposal(msg)
		case BinAckMsg:
			m.handleBinAck(msg)
		case RejoinReportMsg:
			m.handleRejoinReport(msg)
		case JoinRequestMsg:
			m.handleJoinRequest(msg)
		case JoinReadyMsg:
			m.handleJoinReady(msg)
		case DrainRequestMsg:
			// Drain blocks until the worker quiesces; never stall θ_recv.
			go func() { _ = m.Drain(msg.Worker) }()
		case ColumnCopyAckMsg:
			m.handleColumnCopyAck(msg)
		case LeaseAckMsg:
			m.handleLeaseAck(msg)
		case TakeoverMsg:
			m.handleTakeover(msg)
		case WorkerErrorMsg:
			m.handleWorkerError(msg)
		}
	}
}

func (m *Master) handleColumnResult(msg ColumnResultMsg) {
	m.mu.Lock()
	entry, ok := m.tasks[msg.Task]
	if !ok || entry.winner != 0 {
		m.mu.Unlock()
		return // unknown task, or the race is already decided
	}
	as, ok := entry.attempts[msg.Attempt]
	if !ok || as.got[msg.Worker] {
		m.mu.Unlock()
		return // revoked/superseded attempt, or duplicate delivery
	}
	as.got[msg.Worker] = true
	as.received++
	if !as.statsSet {
		as.stats, as.statsSet = msg.Stats, true
	}
	if msg.Best.Valid && msg.Best.Better(as.best) {
		as.best = msg.Best
		as.bestWorker = msg.Worker
	}
	if m.health != nil {
		m.health.ObserveTask(msg.Worker, entry.plan.size, time.Since(as.assignedAt))
	}
	if as.received < as.expected {
		m.mu.Unlock()
		return
	}
	m.decideSplitLocked(entry, as)
	m.mu.Unlock()
}

// decideSplitLocked runs once all column results for one attempt are in. That
// attempt wins the race: any other outstanding attempts are cancelled before
// the split is confirmed, so exactly one worker ever applies it.
func (m *Master) decideSplitLocked(entry *mtask, as *attemptState) {
	p := entry.plan
	a := m.trees[p.tree]
	if a == nil {
		return
	}
	if as.stats.Pure || !as.best.Valid {
		if !as.best.Valid && !as.stats.Pure && a.spec.Params.ExtraTrees && p.tries < len(a.features) {
			// Extra-trees drew a constant column: redraw and retry.
			p.tries++
			m.cancelAttemptsLocked(entry, nil)
			delete(m.tasks, p.id)
			m.bplan.PushHead(p)
			m.obs.TaskRetried()
			m.obs.PlanRequeued()
			m.obs.SetDequeDepth(m.bplan.Len())
			return
		}
		m.makeLeafLocked(entry, as)
		return
	}
	entry.winner = as.attempt
	m.resolveRaceLocked(entry, as)
	// Confirm the winner; everyone else in the attempt drops their task object.
	for w := range as.involved {
		if w != as.bestWorker {
			m.send(w, DropTaskMsg{Task: p.id, Attempt: as.attempt})
		}
	}
	entry.confirmedAt = time.Now()
	m.obs.TaskConfirmed(entry.confirmedAt.Sub(entry.assignedAt))
	m.send(as.bestWorker, ConfirmSplitMsg{Task: p.id, Attempt: as.attempt, Cond: as.best.Cond, Relay: m.cfg.Ablation == AblationRelayRows})
}

// resolveRaceLocked cancels every attempt other than the winner: losers get
// attempt-tagged DropTask messages (their attempt numbers, so a drop can
// never hit the winner's state) and their cost-model charges are reverted.
func (m *Master) resolveRaceLocked(entry *mtask, winner *attemptState) {
	for n, as := range entry.attempts {
		if n == winner.attempt {
			continue
		}
		m.cancelOneAttemptLocked(entry, as)
		delete(entry.attempts, n)
	}
	if winner.hedge {
		m.obs.HedgeWon()
	}
}

// cancelOneAttemptLocked revokes a single attempt at its (alive) workers and
// reverts its charges.
func (m *Master) cancelOneAttemptLocked(entry *mtask, as *attemptState) {
	for w := range as.involved {
		if w >= 0 && w < len(m.alive) && m.alive[w] {
			m.send(w, DropTaskMsg{Task: entry.plan.id, Attempt: as.attempt})
		}
	}
	m.matrix.Revert(as.charges)
	if as.hedge {
		m.obs.HedgeWasted()
	}
}

// cancelAttemptsLocked revokes every outstanding attempt; keep, when non-nil,
// is dropped from the table without DropTask sends (its workers are already
// done with the task).
func (m *Master) cancelAttemptsLocked(entry *mtask, keep *attemptState) {
	for n, as := range entry.attempts {
		if keep != nil && n == keep.attempt {
			m.matrix.Revert(as.charges)
			continue
		}
		m.cancelOneAttemptLocked(entry, as)
	}
	entry.attempts = map[int]*attemptState{}
	entry.hedged = false
}

// makeLeafLocked turns the task's node into a leaf (pure node, or no column
// admits a split).
func (m *Master) makeLeafLocked(entry *mtask, as *attemptState) {
	p := entry.plan
	if as.statsSet {
		as.stats.Fill(p.node)
	}
	entry.winner = as.attempt
	m.resolveRaceLocked(entry, as)
	for w := range as.involved {
		m.send(w, DropTaskMsg{Task: p.id, Attempt: as.attempt})
	}
	m.matrix.Revert(as.charges)
	delete(m.tasks, p.id)
	m.obs.TaskCompleted()
	m.releaseParentLocked(p)
	m.finishTaskLocked(p)
}

func (m *Master) handleSplitDone(msg SplitDoneMsg) {
	m.mu.Lock()
	defer m.mu.Unlock()
	entry, ok := m.tasks[msg.Task]
	if !ok || entry.winner != msg.Attempt {
		return
	}
	as, ok := entry.attempts[msg.Attempt]
	if !ok {
		return
	}
	p := entry.plan
	a := m.trees[p.tree]
	if a == nil {
		return
	}
	cond := as.best.Cond
	cond.Rehydrate()
	p.node.Cond = &cond
	p.node.SeenCodes = msg.SeenCodes
	if as.statsSet {
		as.stats.Fill(p.node)
	}

	left := &core.Node{Depth: p.depth + 1}
	msg.LeftStats.Fill(left)
	right := &core.Node{Depth: p.depth + 1}
	msg.RightStats.Fill(right)
	p.node.Left, p.node.Right = left, right

	// Children are created (and possibly planned) before the parent's
	// progress decrement, preserving the paper's T_prog ordering rule.
	m.spawnChildLocked(a, p, msg.Worker, 0, left, msg.LeftN, msg.LeftStats, msg.LeftRows)
	m.spawnChildLocked(a, p, msg.Worker, 1, right, msg.RightN, msg.RightStats, msg.RightRows)

	m.matrix.Revert(as.charges)
	delete(m.tasks, p.id)
	m.obs.TaskCompleted()
	if !entry.confirmedAt.IsZero() {
		m.obs.SplitApplied(time.Since(entry.confirmedAt))
	}
	m.releaseParentLocked(p)
	m.finishTaskLocked(p)
}

// spawnChildLocked decides the fate of one child node: leaf (stats are
// already in hand, so release the delegate's rows immediately) or a new
// column-/subtree-task pushed into B_plan under the hybrid policy.
func (m *Master) spawnChildLocked(a *assembly, p *plan, delegate int, side uint8, node *core.Node, size int, stats NodeStats, rows []int32) {
	params := a.spec.Params
	depth := p.depth + 1
	isLeaf := stats.Pure || size <= params.MinLeaf ||
		(params.MaxDepth > 0 && depth >= params.MaxDepth)
	if isLeaf {
		m.send(delegate, ReleaseSideMsg{Task: p.id, Side: side})
		return
	}
	child := &plan{
		id: m.newTaskIDLocked(), tree: p.tree, node: node,
		depth: depth, size: size,
		parent: ParentRef{Task: p.id, Side: side, Worker: delegate},
		kind:   m.cfg.Policy.KindFor(size),
		epoch:  p.epoch,
	}
	if m.cfg.Ablation == AblationRelayRows {
		child.rows = rows
	}
	m.prog.Add(p.tree, 1)
	m.bplan.Push(child, size, m.cfg.Policy)
	m.obs.PlanPushed(m.cfg.Policy.DepthFirst(size))
	m.obs.SetDequeDepth(m.bplan.Len())
}

func (m *Master) handleSubtreeResult(msg SubtreeResultMsg) {
	m.mu.Lock()
	defer m.mu.Unlock()
	entry, ok := m.tasks[msg.Task]
	if !ok || entry.winner != 0 {
		return
	}
	as, ok := entry.attempts[msg.Attempt]
	if !ok {
		return
	}
	p := entry.plan
	if _, live := m.trees[p.tree]; !live {
		return
	}
	// First complete attempt wins: losers are dropped before the graft.
	entry.winner = as.attempt
	m.resolveRaceLocked(entry, as)
	if m.health != nil {
		m.health.ObserveTask(msg.Worker, p.size, time.Since(as.assignedAt))
	}
	graft(p.node, msg.Subtree.Root, p.depth)
	m.matrix.Revert(as.charges)
	delete(m.tasks, p.id)
	m.obs.TaskCompleted()
	m.releaseParentLocked(p)
	m.finishTaskLocked(p)
}

// graft copies the built subtree into the assembly slot, shifting node
// depths from subtree-local to absolute.
func graft(slot, subRoot *core.Node, depthOffset int) {
	var shift func(*core.Node)
	shift = func(n *core.Node) {
		if n == nil {
			return
		}
		n.Depth += depthOffset
		shift(n.Left)
		shift(n.Right)
	}
	shift(subRoot)
	*slot = *subRoot
}

func (m *Master) releaseParentLocked(p *plan) {
	if !p.parent.IsRoot() {
		m.send(p.parent.Worker, ReleaseSideMsg{Task: p.parent.Task, Side: p.parent.Side})
	}
}

// finishTaskLocked records the task's completion in T_prog; a zero count
// means the tree is fully built, so it is finalised and its memory released
// — the paper's flush-as-soon-as-complete behaviour.
func (m *Master) finishTaskLocked(p *plan) {
	if !m.prog.Done(p.tree) {
		return
	}
	a := m.trees[p.tree]
	delete(m.trees, p.tree)
	m.active--
	m.obs.SetPool(m.active)
	tree := finalizeTree(a.root, m.schema)
	if m.results != nil && a.index < len(m.results) {
		m.results[a.index] = tree
		m.remaining--
		m.appendTreeDoneLocked(a.index, tree)
		if m.remaining == 0 && m.jobDone != nil {
			close(m.jobDone)
		}
	}
}

// finalizeTree renumbers nodes in pre-order and computes the summary fields,
// matching the serial trainer's bookkeeping.
func finalizeTree(root *core.Node, schema Schema) *core.Tree {
	t := &core.Tree{Root: root, Task: schema.Task, NumClasses: schema.NumClasses}
	id := int32(0)
	var walk func(*core.Node)
	walk = func(n *core.Node) {
		if n == nil {
			return
		}
		n.ID = id
		id++
		if n.Depth > t.MaxDepth {
			t.MaxDepth = n.Depth
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(root)
	t.NumNodes = int(id)
	return t
}

func (m *Master) handleWorkerError(msg WorkerErrorMsg) {
	m.mu.Lock()
	defer m.mu.Unlock()
	entry, live := m.tasks[msg.Task]
	if !live && msg.Task != 0 {
		return // stale error from a revoked task
	}
	if msg.Worker >= 0 && msg.Worker < len(m.alive) && !m.alive[msg.Worker] {
		return
	}
	if live && m.cfg.TaskRetry > 0 {
		// A transient protocol failure (lost rows, missing replica mid-copy):
		// re-execute the task instead of failing the job.
		m.requeueTaskLocked(msg.Task, entry, fmt.Sprintf("worker %d: %s", msg.Worker, msg.Err))
		return
	}
	m.failJobLocked(fmt.Errorf("cluster: worker %d task %d: %s", msg.Worker, msg.Task, msg.Err))
}

// --- Task re-execution (recovery of last resort for lost messages) ---

// retryLoop periodically revokes and requeues tasks whose current attempt has
// outlived its deadline. Together with attempt-tagged messages this gives the
// protocol at-least-once task execution over a lossy fabric: any plan, result,
// confirm or row transfer the fabric drops is eventually recovered by
// re-executing the task from its (still reachable) parent row sets.
func (m *Master) retryLoop() {
	defer m.wg.Done()
	interval := m.cfg.TaskRetry / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
		}
		m.mu.Lock()
		var stale []task.ID
		now := time.Now()
		for id, entry := range m.tasks {
			if now.Sub(entry.assignedAt) > m.attemptDeadline(entry.plan.spawns, entry.plan.size) {
				stale = append(stale, id)
			}
		}
		for _, id := range stale {
			if entry, ok := m.tasks[id]; ok {
				m.requeueTaskLocked(id, entry, "no result before attempt deadline")
			}
		}
		m.mu.Unlock()
	}
}

// attemptDeadline scales TaskRetry by task size — a leaf-level task over a
// few dozen rows should be revoked long before a root-sized one — floored at
// a quarter of the configured deadline so fixed per-task overheads (plan
// delivery, row fetch round-trips) are always granted. The result doubles per
// prior full execution (capped), so re-executions back off exponentially
// under persistent faults.
func (m *Master) attemptDeadline(executions, size int) time.Duration {
	d := m.cfg.TaskRetry
	if ref := m.schema.NumRows; ref > 0 && size < ref {
		d = time.Duration(float64(d) * (0.25 + 0.75*float64(size)/float64(ref)))
	}
	for i := 1; i < executions && i < 6; i++ {
		d *= 2
	}
	return d
}

// requeueTaskLocked revokes every outstanding attempt at its involved workers
// and requeues the plan at the head of B_plan; assignAndSend will bump the
// attempt so stale messages from these executions are ignored everywhere.
func (m *Master) requeueTaskLocked(id task.ID, entry *mtask, reason string) {
	p := entry.plan
	maxAttempts := m.cfg.MaxTaskAttempts
	if maxAttempts <= 0 {
		maxAttempts = 5
	}
	if p.spawns >= maxAttempts {
		m.failJobLocked(fmt.Errorf("cluster: task %d failed after %d attempts: %s", id, p.spawns, reason))
		return
	}
	m.cancelAttemptsLocked(entry, nil)
	delete(m.tasks, id)
	m.bplan.PushHead(p)
	m.obs.TaskRetried()
	m.obs.PlanRequeued()
	m.obs.SetDequeDepth(m.bplan.Len())
}

func (m *Master) failJobLocked(err error) {
	if m.jobErr == nil {
		m.jobErr = err
	}
	if m.remaining > 0 && m.jobDone != nil {
		m.remaining = 0
		close(m.jobDone)
	}
}
