package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"treeserver/internal/core"
	"treeserver/internal/dataset"
	"treeserver/internal/obs"
	"treeserver/internal/split"
	"treeserver/internal/task"
	"treeserver/internal/transport"
)

// Worker is one TreeServer worker machine. It runs a receiving loop (the
// paper's θ_main/θ_recv, folded into one dispatcher since both only move
// state) and a pool of computing threads ("compers") that execute the
// CPU-bound work: split finding and subtree construction.
type Worker struct {
	id      int
	ep      transport.Endpoint
	schema  Schema
	compers int

	mu       sync.Mutex
	cols     map[int]*dataset.Column // column replicas held by this worker
	y        *dataset.Column
	tasks    map[task.ID]*wtask
	rowWaits map[task.ID][]func([]int32)
	colWaits []colWait // work parked until re-replicated columns arrive

	// SetTarget idempotence fence: sequences at or below targetSeq were
	// already applied and are only re-acked. targetApplies counts actual
	// applications for the duplicate-delivery tests.
	targetSeq     int64
	targetApplies int

	// Elastic-fleet join-client state: the highest master generation this
	// worker has observed (-1 until a master speaks to it — carried in join
	// requests so a stale primary can be fenced), whether the worker has
	// been admitted, and the channel Join blocks on (closed exactly once on
	// the first terminal outcome).
	joinGen    int64
	joined     bool
	joinErr    error
	joinDone   chan struct{}
	joinClosed bool

	// Hist-mode state: the broadcast bins (fenced by binSeq), the lazily
	// binned images of held columns, and the node-histogram cache backing
	// subtraction and post-election fetches.
	binSeq    int64
	bins      map[int]split.Bins
	binned    map[int]*split.BinnedColumn
	histCache *histCache

	btask    chan func()
	done     chan struct{} // closed on shutdown; gates btask enqueues and comper exit
	wg       sync.WaitGroup
	stopOnce sync.Once
	busyNs   atomic.Int64

	// rowSets pools per-comper RowSet instances (all sized to the table) so
	// concurrent column-tasks can engage the presorted split fast path
	// without allocating a fresh membership set per task.
	rowSets sync.Pool

	// obs is this worker's measured M_work row; sc the shared split-kernel
	// counters. Both nil when telemetry is disabled — hot paths gate their
	// stopwatches on the nil check so the disabled cost is one comparison.
	obs *obs.WorkerObs
	sc  *obs.SplitCounters
}

// colWait parks a continuation until all its columns are installed. This
// absorbs the fault-recovery race where the master re-plans a task onto a
// new replica owner before the column copy has arrived.
type colWait struct {
	cols []int
	cont func()
}

// wtask is the worker-side task object kept in T_task.
type wtask struct {
	// Column-task state.
	colPlan *ColumnPlanMsg
	attempt int
	rows    []int32
	// Delegate state after ConfirmSplit. confirmed and released guard against
	// duplicate deliveries: a re-sent confirm must not re-partition, and a
	// duplicated release must not double-decrement pendingReleases and free
	// the other side's rows early.
	confirmed           bool
	released            [2]bool
	leftRows, rightRows []int32
	pendingReleases     int
	// Subtree-task (key worker) state.
	subPlan    *SubtreePlanMsg
	shards     map[int]*dataset.Column
	needShards int
}

// NewWorker constructs a worker holding the given column replicas plus the
// full target column y. Start must be called before the master sends plans.
// reg, when non-nil, receives the worker's Comp/Send/Recv stopwatches and
// pool telemetry; the worker resolves its collectors once here so the hot
// paths pay a single pointer check.
func NewWorker(id int, ep transport.Endpoint, schema Schema, cols map[int]*dataset.Column, y *dataset.Column, compers int, reg *obs.Registry) *Worker {
	if compers < 1 {
		compers = 1
	}
	// Own the Kinds slice: over the in-memory fabric every worker receives
	// the same backing array, and handleSetTarget mutates it in place.
	schema.Kinds = append([]dataset.Kind(nil), schema.Kinds...)
	return &Worker{
		id: id, ep: ep, schema: schema, compers: compers,
		cols: cols, y: y,
		tasks:     map[task.ID]*wtask{},
		rowWaits:  map[task.ID][]func([]int32){},
		histCache: newHistCache(defaultHistCacheCap),
		btask:     make(chan func(), 4096),
		done:      make(chan struct{}),
		joinGen:   -1,
		joinDone:  make(chan struct{}),
		obs:       reg.Worker(id),
		sc:        reg.Split(),
	}
}

// ID returns the worker's index.
func (w *Worker) ID() int { return w.id }

// BusySeconds returns the cumulative comper compute time, the basis for the
// CPU-utilisation numbers of Table VI.
func (w *Worker) BusySeconds() float64 { return float64(w.busyNs.Load()) / 1e9 }

// TransportStats exposes the worker's traffic counters.
func (w *Worker) TransportStats() transport.Stats { return w.ep.Stats() }

// HoldsColumn reports whether the worker currently holds a replica of col.
func (w *Worker) HoldsColumn(col int) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, ok := w.cols[col]
	return ok
}

// Start launches the receive loop and the comper pool.
func (w *Worker) Start() {
	for i := 0; i < w.compers; i++ {
		w.wg.Add(1)
		go w.comperLoop()
	}
	w.wg.Add(1)
	go w.recvLoop()
}

// Wait blocks until the worker terminates (a ShutdownMsg from the master or
// a Stop call) — the run loop of a standalone worker process.
func (w *Worker) Wait() { w.wg.Wait() }

// Stop terminates the worker and waits for its goroutines.
func (w *Worker) Stop() {
	w.stopOnce.Do(func() {
		w.ep.Close()
		close(w.done)
	})
	w.wg.Wait()
}

// enqueue hands a job to the comper pool. Late continuations (a delayed
// RowsResponse landing after shutdown) must not panic or block forever, so
// shutdown is signalled via the done channel rather than closing btask.
func (w *Worker) enqueue(job func()) {
	select {
	case <-w.done:
		return
	default:
	}
	select {
	case w.btask <- job:
	case <-w.done:
	}
}

func (w *Worker) comperLoop() {
	defer w.wg.Done()
	for {
		select {
		case <-w.done:
			return
		case job := <-w.btask:
			start := time.Now()
			job()
			d := time.Since(start)
			w.busyNs.Add(int64(d))
			w.obs.AddComp(d) // the measured M_work Comp column
		}
	}
}

func (w *Worker) recvLoop() {
	defer w.wg.Done()
	for {
		env, ok := w.ep.Recv()
		if !ok {
			return
		}
		if w.obs != nil {
			// Time the handler (not the blocking Recv wait): that is the
			// measured M_work Recv column, the receive-side protocol cost.
			start := time.Now()
			alive := w.dispatch(env)
			w.obs.AddRecv(time.Since(start))
			if !alive {
				return
			}
			continue
		}
		if !w.dispatch(env) {
			return
		}
	}
}

// dispatch routes one delivered message; it returns false on shutdown.
func (w *Worker) dispatch(env transport.Envelope) bool {
	switch msg := env.Payload.(type) {
	case ColumnPlanMsg:
		w.handleColumnPlan(msg)
	case SubtreePlanMsg:
		w.handleSubtreePlan(msg)
	case ConfirmSplitMsg:
		w.handleConfirm(msg)
	case DropTaskMsg:
		w.handleDrop(msg)
	case ReleaseSideMsg:
		w.handleRelease(msg)
	case RowsRequestMsg:
		w.handleRowsRequest(msg)
	case RowsResponseMsg:
		w.handleRowsResponse(msg)
	case ColDataRequestMsg:
		w.handleColDataRequest(msg)
	case ColDataResponseMsg:
		w.handleColDataResponse(msg)
	case ReplicateColumnMsg:
		w.handleReplicate(msg)
	case ColumnCopyMsg:
		w.handleColumnCopy(msg)
	case SetTargetMsg:
		w.handleSetTarget(msg)
	case BinProposalRequestMsg:
		w.handleBinProposalRequest(msg)
	case BinBroadcastMsg:
		w.handleBinBroadcast(msg)
	case RejoinRequestMsg:
		w.handleRejoin(msg)
	case JoinAcceptMsg:
		w.handleJoinAccept(msg)
	case JoinAdmitMsg:
		w.handleJoinAdmit(msg)
	case JoinRejectMsg:
		w.handleJoinReject(msg)
	case PingMsg:
		w.send(MasterName, PongMsg{Worker: w.id, Seq: msg.Seq})
	case ProbeMsg:
		w.send(MasterName, ProbeAckMsg{Worker: w.id, Seq: msg.Seq})
	case ShutdownMsg:
		w.stopOnce.Do(func() {
			w.ep.Close()
			close(w.done)
		})
		return false
	}
	return true
}

func (w *Worker) send(to string, payload any) {
	// Transient fabric errors are retried with bounded backoff; permanent
	// errors mean the peer crashed or the job is over, and the master's
	// fault-recovery and task re-execution paths own those situations.
	if w.obs != nil {
		// Retries and backoff sleeps are charged too: the measured M_work
		// Send column is the wall cost of getting bytes out, not just the
		// happy-path serialisation.
		start := time.Now()
		_ = transport.SendWithRetry(w.ep, to, payload, transport.DefaultRetryPolicy())
		w.obs.AddSend(time.Since(start))
		return
	}
	_ = transport.SendWithRetry(w.ep, to, payload, transport.DefaultRetryPolicy())
}

func (w *Worker) fail(t task.ID, format string, args ...any) {
	w.send(MasterName, WorkerErrorMsg{Worker: w.id, Task: t, Err: fmt.Sprintf(format, args...)})
}

// needRows arranges for cont to run with I_x for the task: root bags are
// derived locally, locally-delegated rows are read directly, and remote rows
// are requested from the parent worker (Section V). cont runs on the receive
// goroutine.
func (w *Worker) needRows(parent ParentRef, forTask task.ID, cont func([]int32)) {
	if parent.IsRoot() {
		cont(parent.Bag.Rows())
		return
	}
	if parent.Worker == w.id {
		rows, ok := w.lookupSideRows(parent.Task, parent.Side)
		if !ok {
			w.fail(forTask, "local parent task %d side %d has no rows", parent.Task, parent.Side)
			return
		}
		cont(rows)
		return
	}
	w.mu.Lock()
	w.rowWaits[forTask] = append(w.rowWaits[forTask], cont)
	w.mu.Unlock()
	w.send(WorkerName(parent.Worker), RowsRequestMsg{Parent: parent, ForTask: forTask, Requester: w.id})
}

// whenColumnsPresent runs cont once the worker holds every listed column —
// immediately in the common case, or after a ColumnCopyMsg lands.
func (w *Worker) whenColumnsPresent(cols []int, cont func()) {
	w.mu.Lock()
	missing := false
	for _, c := range cols {
		if w.cols[c] == nil {
			missing = true
			break
		}
	}
	if missing {
		w.colWaits = append(w.colWaits, colWait{cols: append([]int(nil), cols...), cont: cont})
		w.mu.Unlock()
		return
	}
	w.mu.Unlock()
	cont()
}

func (w *Worker) lookupSideRows(parent task.ID, side uint8) ([]int32, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	entry, ok := w.tasks[parent]
	if !ok {
		return nil, false
	}
	if side == 0 {
		return entry.leftRows, entry.leftRows != nil
	}
	return entry.rightRows, entry.rightRows != nil
}

// --- Column-task flow (Fig. 9(b)) ---

func (w *Worker) handleColumnPlan(msg ColumnPlanMsg) {
	entry := &wtask{colPlan: &msg, attempt: msg.Attempt}
	w.mu.Lock()
	if prev, ok := w.tasks[msg.Task]; ok && prev.attempt >= msg.Attempt {
		w.mu.Unlock()
		return // duplicated or stale plan delivery; keep the live state
	}
	w.tasks[msg.Task] = entry
	w.mu.Unlock()
	compute := w.computeColumnTask
	if msg.Hist {
		compute = w.computeColumnTaskHist
	}
	if msg.Rows != nil { // relay-rows ablation: I_x arrived with the plan
		entry.rows = msg.Rows
		w.whenColumnsPresent(msg.Cols, func() {
			w.enqueue(func() { compute(msg, msg.Rows) })
		})
		return
	}
	w.needRows(msg.Parent, msg.Task, func(rows []int32) {
		w.mu.Lock()
		if w.tasks[msg.Task] != entry { // dropped while waiting
			w.mu.Unlock()
			return
		}
		entry.rows = rows
		w.mu.Unlock()
		w.whenColumnsPresent(msg.Cols, func() {
			w.enqueue(func() { compute(msg, rows) })
		})
	})
}

func (w *Worker) computeColumnTask(msg ColumnPlanMsg, rows []int32) {
	w.mu.Lock()
	y := w.y
	localCols := make([]*dataset.Column, len(msg.Cols))
	for i, c := range msg.Cols {
		localCols[i] = w.cols[c]
	}
	w.mu.Unlock()

	// Per-comper scratch keeps the exact-split kernels allocation-free, and
	// a pooled RowSet loaded once per task lets every numeric column of the
	// task reuse the same membership walk over its presorted index.
	scratch := split.GetScratchObserved(w.sc)
	defer split.PutScratch(scratch)
	var rs *dataset.RowSet
	if !msg.Random && split.Dense(len(rows), y.Len()) && anyNumeric(localCols) {
		rs = w.getRowSet(y.Len())
		rs.AddAll(rows)
		defer func() {
			rs.RemoveAll(rows)
			w.rowSets.Put(rs)
		}()
	}

	best := split.Candidate{}
	for i, colIdx := range msg.Cols {
		col := localCols[i]
		if col == nil {
			w.fail(msg.Task, "assigned column %d not held", colIdx)
			return
		}
		req := split.Request{
			Col: col, ColIdx: colIdx, Y: y, Rows: rows,
			Measure: msg.Measure, NumClasses: msg.NumClasses,
			MaxExhaustiveLevels: msg.MaxExh,
			RowSet:              rs, Scratch: scratch,
			Counters: w.sc,
		}
		var cand split.Candidate
		if msg.Random {
			cand = split.FindRandom(req, rand.New(rand.NewSource(msg.RandomSeed+int64(i))))
		} else {
			cand = split.FindBest(req)
		}
		if cand.Better(best) {
			best = cand
		}
	}
	stats := StatsOf(y, rows, msg.NumClasses)
	w.send(MasterName, ColumnResultMsg{Task: msg.Task, Attempt: msg.Attempt, Worker: w.id, Best: best, Stats: stats})
}

// anyNumeric reports whether any held column of the task is numeric (nil
// entries are reported as a task failure later; skip them here).
func anyNumeric(cols []*dataset.Column) bool {
	for _, c := range cols {
		if c != nil && c.Kind == dataset.Numeric {
			return true
		}
	}
	return false
}

// getRowSet returns a pooled RowSet sized for numRows-row tables, allocating
// one only when the pool is empty or the table size changed (SetTarget never
// changes row counts, so in practice sizes match for a worker's lifetime).
func (w *Worker) getRowSet(numRows int) *dataset.RowSet {
	if v := w.rowSets.Get(); v != nil {
		if rs := v.(*dataset.RowSet); rs.Cap() == numRows {
			w.obs.RowSetGet(true)
			return rs
		}
	}
	w.obs.RowSetGet(false)
	return dataset.NewRowSet(numRows)
}

// handleConfirm runs on the delegate worker: split I_x with the winning
// condition, report child statistics, and retain both sides for the child
// tasks' row requests.
func (w *Worker) handleConfirm(msg ConfirmSplitMsg) {
	w.mu.Lock()
	entry, ok := w.tasks[msg.Task]
	var col *dataset.Column
	if ok {
		col = w.cols[msg.Cond.Col]
	}
	w.mu.Unlock()
	if !ok || entry.attempt != msg.Attempt || entry.confirmed {
		// Dropped task, revoked attempt, or a duplicated confirm delivery:
		// all expected under lossy fabrics — the master's re-execution owns
		// recovery, so a stale confirm is silently ignored.
		return
	}
	if entry.rows == nil {
		w.fail(msg.Task, "confirm for task with no rows")
		return
	}
	if col == nil {
		w.fail(msg.Task, "confirm for column %d not held", msg.Cond.Col)
		return
	}
	cond := msg.Cond
	cond.Rehydrate()
	left, right := cond.Partition(col, entry.rows)
	done := SplitDoneMsg{
		Task: msg.Task, Attempt: entry.attempt, Worker: w.id,
		LeftN: len(left), RightN: len(right),
		LeftStats:  StatsOf(w.y, left, w.schema.NumClasses),
		RightStats: StatsOf(w.y, right, w.schema.NumClasses),
		SeenCodes:  core.SeenCodes(col, entry.rows),
	}
	if msg.Relay {
		done.LeftRows, done.RightRows = left, right
	}
	w.mu.Lock()
	entry.rows = nil
	entry.confirmed = true
	entry.leftRows, entry.rightRows = left, right
	entry.pendingReleases = 2
	w.mu.Unlock()
	w.send(MasterName, done)
}

func (w *Worker) handleRelease(msg ReleaseSideMsg) {
	w.mu.Lock()
	defer w.mu.Unlock()
	entry, ok := w.tasks[msg.Task]
	if !ok || msg.Side > 1 || entry.released[msg.Side] {
		return // unknown task or duplicated release
	}
	entry.released[msg.Side] = true
	if msg.Side == 0 {
		entry.leftRows = nil
	} else {
		entry.rightRows = nil
	}
	entry.pendingReleases--
	if entry.pendingReleases <= 0 {
		delete(w.tasks, msg.Task)
	}
}

func (w *Worker) handleDrop(msg DropTaskMsg) {
	w.mu.Lock()
	if entry, ok := w.tasks[msg.Task]; ok && entry.attempt <= msg.Attempt {
		delete(w.tasks, msg.Task)
		delete(w.rowWaits, msg.Task)
	}
	w.mu.Unlock()
}

// --- Row serving (Section V) ---

func (w *Worker) handleRowsRequest(msg RowsRequestMsg) {
	start := time.Now()
	rows, ok := w.lookupSideRows(msg.Parent.Task, msg.Parent.Side)
	if !ok {
		w.fail(msg.ForTask, "rows request for task %d side %d: not held", msg.Parent.Task, msg.Parent.Side)
		return
	}
	w.send(WorkerName(msg.Requester), RowsResponseMsg{ForTask: msg.ForTask, Rows: rows})
	w.obs.RowServed(time.Since(start))
}

func (w *Worker) handleRowsResponse(msg RowsResponseMsg) {
	w.mu.Lock()
	conts := w.rowWaits[msg.ForTask]
	delete(w.rowWaits, msg.ForTask)
	w.mu.Unlock()
	for _, cont := range conts {
		cont(msg.Rows)
	}
}

// --- Subtree-task flow (Fig. 9(a)) ---

func (w *Worker) handleSubtreePlan(msg SubtreePlanMsg) {
	entry := &wtask{subPlan: &msg, attempt: msg.Attempt, shards: map[int]*dataset.Column{}}
	w.mu.Lock()
	if prev, ok := w.tasks[msg.Task]; ok && prev.attempt >= msg.Attempt {
		w.mu.Unlock()
		return // duplicated or stale plan delivery; keep the live state
	}
	w.tasks[msg.Task] = entry
	w.mu.Unlock()
	withRows := func(rows []int32) {
		w.mu.Lock()
		if w.tasks[msg.Task] != entry {
			w.mu.Unlock()
			return
		}
		entry.rows = rows
		// Group remote columns per serving worker; local columns are
		// gathered at build time.
		perWorker := map[int][]int{}
		for col, server := range msg.ColServer {
			if server != w.id {
				perWorker[server] = append(perWorker[server], col)
				entry.needShards++
			}
		}
		ready := entry.needShards == 0
		w.mu.Unlock()
		for server, cols := range perWorker {
			sort.Ints(cols)
			req := ColDataRequestMsg{
				ForTask: msg.Task, Attempt: msg.Attempt, Cols: cols, Parent: msg.Parent,
				KeyWorker: w.id, Requester: w.id,
			}
			if msg.Rows != nil {
				req.Rows = rows // relay mode: forward I_x to the server
			}
			w.send(WorkerName(server), req)
		}
		if ready {
			w.enqueueBuild(msg, entry)
		}
	}
	if msg.Rows != nil {
		withRows(msg.Rows)
		return
	}
	w.needRows(msg.Parent, msg.Task, withRows)
}

// enqueueBuild schedules the subtree build once the key worker's own column
// replicas are all present (they may be inbound after fault recovery).
func (w *Worker) enqueueBuild(msg SubtreePlanMsg, entry *wtask) {
	var local []int
	for col, server := range msg.ColServer {
		if server == w.id {
			local = append(local, col)
		}
	}
	w.whenColumnsPresent(local, func() {
		w.enqueue(func() { w.buildSubtree(msg, entry) })
	})
}

func (w *Worker) handleColDataRequest(msg ColDataRequestMsg) {
	serve := func(rows []int32) {
		w.mu.Lock()
		data := make([]*dataset.Column, len(msg.Cols))
		for i, c := range msg.Cols {
			col := w.cols[c]
			if col == nil {
				w.mu.Unlock()
				w.fail(msg.ForTask, "data request for column %d not held", c)
				return
			}
			data[i] = col.Gather(rows)
		}
		w.mu.Unlock()
		w.send(WorkerName(msg.KeyWorker), ColDataResponseMsg{ForTask: msg.ForTask, Attempt: msg.Attempt, Cols: msg.Cols, Data: data})
	}
	// Serving runs off the receive loop so a large gather cannot delay
	// heartbeat replies or other peers' row requests; it also waits for any
	// inbound column replicas this worker was just assigned.
	async := func(rows []int32) {
		w.whenColumnsPresent(msg.Cols, func() { go serve(rows) })
	}
	if msg.Rows != nil { // relay mode: rows came with the request
		async(msg.Rows)
		return
	}
	w.needRows(msg.Parent, msg.ForTask, async)
}

func (w *Worker) handleColDataResponse(msg ColDataResponseMsg) {
	w.mu.Lock()
	entry, ok := w.tasks[msg.ForTask]
	if !ok || entry.subPlan == nil || entry.attempt != msg.Attempt {
		// Unknown task or shards gathered for a revoked attempt, whose
		// column set may not match this attempt's requests.
		w.mu.Unlock()
		return
	}
	for i, c := range msg.Cols {
		if _, dup := entry.shards[c]; !dup {
			entry.shards[c] = msg.Data[i]
			entry.needShards--
		}
	}
	ready := entry.needShards == 0 && entry.rows != nil
	plan := *entry.subPlan
	w.mu.Unlock()
	if ready {
		w.enqueueBuild(plan, entry)
	}
}

// buildSubtree runs on a comper: assemble the compact D_x table (candidate
// columns in ascending order plus Y) and train Δ_x locally, then remap
// column indexes back to table coordinates.
func (w *Worker) buildSubtree(msg SubtreePlanMsg, entry *wtask) {
	w.mu.Lock()
	if w.tasks[msg.Task] != entry { // dropped during collection
		w.mu.Unlock()
		return
	}
	rows := entry.rows
	cand := append([]int(nil), msg.Params.Candidates...)
	sort.Ints(cand)
	cols := make([]*dataset.Column, 0, len(cand)+1)
	mapping := make([]int, 0, len(cand))
	missing := -1
	for _, c := range cand {
		shard := entry.shards[c]
		if shard == nil {
			if local := w.cols[c]; local != nil {
				shard = local.Gather(rows)
			} else {
				missing = c
			}
		}
		cols = append(cols, shard)
		mapping = append(mapping, c)
	}
	yShard := w.y.Gather(rows)
	delete(w.tasks, msg.Task)
	w.mu.Unlock()
	if missing >= 0 {
		w.fail(msg.Task, "subtree build missing column %d", missing)
		return
	}

	cols = append(cols, yShard)
	tbl := &dataset.Table{Cols: cols, Target: len(cols) - 1}
	params := msg.Params
	params.Candidates = make([]int, len(mapping))
	for i := range mapping {
		params.Candidates[i] = i
	}
	if params.MaxDepth > 0 {
		params.MaxDepth -= msg.Depth
	}
	tree := core.TrainLocal(tbl, dataset.AllRows(tbl.NumRows()), params)
	tree.Walk(func(n *core.Node) {
		if n.Cond != nil {
			n.Cond.Col = mapping[n.Cond.Col]
		}
	})
	w.send(MasterName, SubtreeResultMsg{Task: msg.Task, Attempt: msg.Attempt, Worker: w.id, Subtree: tree})
}

// handleSetTarget swaps in a new numeric label column (gradient-boosting
// rounds). Only valid between jobs: the master serialises it under its job
// lock, so no task references the old Y concurrently.
func (w *Worker) handleSetTarget(msg SetTargetMsg) {
	w.mu.Lock()
	// The master resends SetTarget until an alive quorum acks, so a degraded
	// worker whose acks arrive late sees the same sequence repeatedly. Apply
	// each sequence once; re-ack unconditionally (the ack may be the lost
	// half of the exchange).
	applied := false
	if msg.Seq > w.targetSeq {
		w.targetSeq = msg.Seq
		w.targetApplies++
		w.y = dataset.NewNumeric("Y", msg.Y)
		w.schema.NumClasses = 0
		w.schema.Task = dataset.Regression
		w.schema.Kinds[w.schema.Target] = dataset.Numeric
		applied = true
	}
	w.mu.Unlock()
	if applied {
		// Cached node histograms aggregate the old labels; bins and binned
		// columns survive (they discretise features, not the target).
		w.histCache.reset()
	}
	w.send(MasterName, TargetAckMsg{Worker: w.id, Seq: msg.Seq})
}

// TargetApplies reports how many SetTarget sequences this worker has applied
// — the probe the duplicate-delivery tests assert on.
func (w *Worker) TargetApplies() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.targetApplies
}

// --- Fault-recovery support ---

// handleRejoin re-registers the worker with a restarted master: all in-flight
// task state is discarded (the new master re-plans everything unfinished, and
// its generation-fenced task IDs make stale results unmatchable anyway) and
// the surviving column replicas are reported, sorted, so the master can
// reconcile placement against ground truth. Column shards and the target
// column are kept — they are exactly what makes a master crash recoverable
// without reloading data.
func (w *Worker) handleRejoin(msg RejoinRequestMsg) {
	w.mu.Lock()
	// Track the master generation for the join fence: a worker that has
	// rejoined a promoted master carries its generation in join retries,
	// which lets a not-yet-fenced stale primary reject itself.
	if msg.Gen > w.joinGen {
		w.joinGen = msg.Gen
	}
	w.tasks = map[task.ID]*wtask{}
	w.rowWaits = map[task.ID][]func([]int32){}
	w.colWaits = nil
	// A replacement master restarts its bin sequence at zero, so the fence
	// must reset or its broadcast would be rejected as stale; the re-proposed
	// bins are identical, but the protocol re-derives them for simplicity.
	w.binSeq = 0
	w.bins, w.binned = nil, nil
	// Same story for the SetTarget sequence: the replacement master counts
	// from zero, so an unreset fence would silently swallow its first target
	// swap — boosting rounds after a failover would train on stale labels.
	w.targetSeq = 0
	cols := make([]int, 0, len(w.cols))
	for c := range w.cols {
		cols = append(cols, c)
	}
	w.mu.Unlock()
	w.histCache.reset()
	sort.Ints(cols)
	// A promoted standby on TCP listens on a new address; repoint the master
	// peer before replying so the report (and everything after) reaches it.
	// The in-memory fabric rebinds by name and leaves MasterAddr empty. The
	// endpoint may sit behind telemetry/chaos decorators, hence the unwrap
	// walk to the fabric that actually holds the peer table.
	if msg.MasterAddr != "" {
		for ep := w.ep; ep != nil; {
			if rp, ok := ep.(interface{ RepointPeer(string, string) }); ok {
				rp.RepointPeer(MasterName, msg.MasterAddr)
				break
			}
			u, ok := ep.(interface{ Unwrap() transport.Endpoint })
			if !ok {
				break
			}
			ep = u.Unwrap()
		}
	}
	w.send(MasterName, RejoinReportMsg{Worker: w.id, Gen: msg.Gen, Cols: cols})
}

func (w *Worker) handleReplicate(msg ReplicateColumnMsg) {
	w.mu.Lock()
	col := w.cols[msg.Col]
	w.mu.Unlock()
	if col == nil {
		w.fail(0, "replicate request for column %d not held", msg.Col)
		return
	}
	w.send(WorkerName(msg.To), ColumnCopyMsg{Col: msg.Col, Data: col})
}

func (w *Worker) handleColumnCopy(msg ColumnCopyMsg) {
	w.mu.Lock()
	w.cols[msg.Col] = msg.Data
	var ready []func()
	remaining := w.colWaits[:0]
	for _, cw := range w.colWaits {
		ok := true
		for _, c := range cw.cols {
			if w.cols[c] == nil {
				ok = false
				break
			}
		}
		if ok {
			ready = append(ready, cw.cont)
		} else {
			remaining = append(remaining, cw)
		}
	}
	w.colWaits = remaining
	w.mu.Unlock()
	// Acknowledge the landed copy (idempotent — duplicates re-ack): drains
	// wait on these before retiring the source of a last replica.
	w.send(MasterName, ColumnCopyAckMsg{Worker: w.id, Col: msg.Col})
	for _, cont := range ready {
		cont()
	}
}
