// Package obs is the live telemetry registry of the TreeServer stack: the
// measured counterpart of the cost model the master schedules by. Where
// loadbal.Matrix holds the *predicted* M_work[worker][{Comp,Send,Recv}]
// charges of Section VI, a Registry accumulates the *observed* quantities —
// comper compute time, send/receive stopwatches, per-link traffic, B_plan
// push behaviour, task lifecycle counts, split-kernel dispatch rates, and the
// hist mode's bin rounds and histogram fills/subtractions — so the two can be
// compared on a real run.
//
// Every counter is an atomic behind a nil-safe method: a disabled deployment
// passes a nil *Registry (or nil *MasterObs / *WorkerObs / *SplitCounters)
// through the same call sites and pays one pointer check per event, which
// keeps the hot kernels allocation-free and within noise of the
// un-instrumented build.
//
// The registry is exposed three ways: Snapshot() returns a plain
// gob/JSON-serialisable struct for tests and benchtab; Handler() serves the
// snapshot plus expvar and pprof over HTTP (the tsserve/tstrain debug mux);
// Report() renders the end-of-train summary cmd/treeserver prints.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Registry aggregates one deployment's telemetry. All methods are safe for
// concurrent use and safe on a nil receiver (they become no-ops or return
// nil sub-collectors, whose methods are in turn nil-safe).
type Registry struct {
	start time.Time

	master MasterObs
	split  SplitCounters
	serve  ServeObs

	mu      sync.Mutex
	workers map[int]*WorkerObs

	links sync.Map // string "from→to" -> *LinkCounters
	msgs  sync.Map // message type name -> *MsgCounters
}

// NewRegistry returns an empty registry with the uptime clock started.
func NewRegistry() *Registry {
	return &Registry{start: time.Now(), workers: map[int]*WorkerObs{}}
}

// Master returns the master-side collector (nil if r is nil).
func (r *Registry) Master() *MasterObs {
	if r == nil {
		return nil
	}
	return &r.master
}

// Split returns the split-kernel collector (nil if r is nil).
func (r *Registry) Split() *SplitCounters {
	if r == nil {
		return nil
	}
	return &r.split
}

// Worker returns (creating on first use) the collector of one worker. The
// id is the cluster worker index; nil if r is nil.
func (r *Registry) Worker(id int) *WorkerObs {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[id]
	if !ok {
		w = &WorkerObs{id: id}
		r.workers[id] = w
	}
	return w
}

// LinkCounters counts one directed link's traffic (from→to).
type LinkCounters struct {
	msgs    atomic.Int64
	bytes   atomic.Int64
	retries atomic.Int64
}

// MsgCounters counts one wire message type across all links.
type MsgCounters struct {
	count atomic.Int64
	bytes atomic.Int64
}

func (r *Registry) link(from, to string) *LinkCounters {
	key := from + "→" + to
	if v, ok := r.links.Load(key); ok {
		return v.(*LinkCounters)
	}
	v, _ := r.links.LoadOrStore(key, &LinkCounters{})
	return v.(*LinkCounters)
}

func (r *Registry) msgType(name string) *MsgCounters {
	if v, ok := r.msgs.Load(name); ok {
		return v.(*MsgCounters)
	}
	v, _ := r.msgs.LoadOrStore(name, &MsgCounters{})
	return v.(*MsgCounters)
}

// CountSend records one delivered message on the from→to link.
func (r *Registry) CountSend(from, to, msgType string, bytes int) {
	if r == nil {
		return
	}
	l := r.link(from, to)
	l.msgs.Add(1)
	l.bytes.Add(int64(bytes))
	m := r.msgType(msgType)
	m.count.Add(1)
	m.bytes.Add(int64(bytes))
}

// CountRetry records one send re-attempt on the from→to link.
func (r *Registry) CountRetry(from, to string) {
	if r == nil {
		return
	}
	r.link(from, to).retries.Add(1)
}

// MasterObs collects the master's scheduling telemetry: B_plan behaviour,
// pool occupancy and the task lifecycle (plan → confirm → complete, with
// re-executions and supersessions). All methods are nil-safe.
type MasterObs struct {
	pushesBFS atomic.Int64 // PushTail insertions (|D_x| > τ_dfs)
	pushesDFS atomic.Int64 // PushHead insertions (|D_x| <= τ_dfs)
	requeues  atomic.Int64 // PushHead re-insertions of revoked plans

	dequeDepth atomic.Int64 // live B_plan length gauge
	dequeHigh  atomic.Int64 // high-water mark of dequeDepth
	pool       atomic.Int64 // live n_pool occupancy (trees under construction)
	poolHigh   atomic.Int64

	planned    atomic.Int64 // attempts shipped by assignAndSend
	confirmed  atomic.Int64 // ConfirmSplit decisions
	completed  atomic.Int64 // tasks finished (leaf, split-done or subtree)
	retried    atomic.Int64 // attempts revoked and requeued for re-execution
	superseded atomic.Int64 // attempts revoked without requeue (tree restart)

	rowsPlanned atomic.Int64 // Σ|D_x| over planned attempts
	attemptHigh atomic.Int64 // highest attempt number any task reached

	planNs       atomic.Int64 // plan→decision latency sum (column tasks)
	planSpans    atomic.Int64
	confirmNs    atomic.Int64 // confirm→split-done latency sum
	confirmSpans atomic.Int64

	// Checkpoint/recovery telemetry (the durable-master subsystem).
	ckSnapshots      atomic.Int64 // full snapshot files written
	ckRecords        atomic.Int64 // incremental tree-done records appended
	ckBytes          atomic.Int64 // total bytes written (snapshots + records)
	ckNs             atomic.Int64 // wall time spent writing checkpoints
	ckErrors         atomic.Int64 // failed checkpoint writes (training continues)
	restores         atomic.Int64 // successful checkpoint restores
	restoredTrees    atomic.Int64 // completed trees recovered across restores
	restoreSkipped   atomic.Int64 // whole files skipped as corrupt during restore
	restoreTruncated atomic.Int64 // torn tail records dropped during restore
	treeRestarts     atomic.Int64 // tree restarts (delegate loss recovery)
	treeRestartHigh  atomic.Int64 // most restarts any single tree needed

	// Gray-failure telemetry (straggler scoring / hedging / quarantine).
	hedgesLaunched atomic.Int64 // duplicate attempts shipped by the hedge loop
	hedgesWon      atomic.Int64 // tasks whose winning result came from a hedge
	hedgesWasted   atomic.Int64 // outstanding attempts cancelled because a sibling won
	quarantines    atomic.Int64 // circuit-breaker closed→open transitions
	probesSent     atomic.Int64 // probe messages shipped to workers
	probations     atomic.Int64 // probation passes (half-open→closed restores)

	// Hot-standby telemetry (checkpoint streaming and the failover lease).
	streamRecords atomic.Int64 // checkpoint records queued for the standby
	streamBytes   atomic.Int64 // payload bytes of those records
	streamDropped atomic.Int64 // records dropped on a full stream queue
	streamErrors  atomic.Int64 // records lost to transport send failures
	streamApplied atomic.Int64 // records the replica materialised (standby side)
	streamStale   atomic.Int64 // records the replica discarded as stale (standby side)
	streamLag     atomic.Int64 // gauge: records queued minus records the standby acked
	leaseRenewals atomic.Int64 // renewals the primary shipped
	leaseAcks     atomic.Int64 // acks the primary received back
	leaseLost     atomic.Int64 // primary lease machines that fenced (lapse/higher gen)
	failovers     atomic.Int64 // standby promotions driven to completion

	// Histogram-mode telemetry (bin proposal).
	binRounds    atomic.Int64 // bin proposal/broadcast rounds completed
	sketchMerges atomic.Int64 // replica quantile summaries merged during bin proposal

	// Elastic-fleet telemetry (live join / graceful drain / rebalancing).
	joins          atomic.Int64 // workers admitted mid-job via the join handshake
	joinRejects    atomic.Int64 // join requests refused (fence, fleet cap, mid-recovery)
	drains         atomic.Int64 // workers gracefully drained and retired
	drainSheds     atomic.Int64 // cordoned workers force-shed past the drain deadline
	rebalancedCols atomic.Int64 // column replicas moved by join/drain rebalancing

	// The health vector is a gauge, not a counter: the master overwrites it
	// each scoring pass, so it lives behind a mutex rather than atomics.
	healthMu         sync.Mutex
	healthScores     []float64 // per-worker median-normalised score, 1 ≈ fleet-typical
	quarantineStates []string  // per-worker circuit state: closed | open | half-open
}

// TaskLedger is the durable subset of the master's task-lifecycle counters:
// what checkpointing persists and a restore max-merges back in, so the
// end-of-train report spans the whole job rather than just the resumed half.
type TaskLedger struct {
	Planned, Confirmed, Completed int64
	Retried, Superseded           int64
	RowsPlanned                   int64
}

// Ledger snapshots the durable counters.
func (m *MasterObs) Ledger() TaskLedger {
	if m == nil {
		return TaskLedger{}
	}
	return TaskLedger{
		Planned:     m.planned.Load(),
		Confirmed:   m.confirmed.Load(),
		Completed:   m.completed.Load(),
		Retried:     m.retried.Load(),
		Superseded:  m.superseded.Load(),
		RowsPlanned: m.rowsPlanned.Load(),
	}
}

// RestoreLedger folds a persisted ledger into the live counters with max
// semantics: each counter becomes max(live, persisted). Max (not add) keeps
// the restore idempotent and correct both for a fresh process (live ≈ 0) and
// an in-process restart that reuses the registry (live ≥ persisted).
func (m *MasterObs) RestoreLedger(l TaskLedger) {
	if m == nil {
		return
	}
	maxMerge := func(c *atomic.Int64, v int64) {
		for {
			cur := c.Load()
			if v <= cur || c.CompareAndSwap(cur, v) {
				return
			}
		}
	}
	maxMerge(&m.planned, l.Planned)
	maxMerge(&m.confirmed, l.Confirmed)
	maxMerge(&m.completed, l.Completed)
	maxMerge(&m.retried, l.Retried)
	maxMerge(&m.superseded, l.Superseded)
	maxMerge(&m.rowsPlanned, l.RowsPlanned)
}

// CheckpointWritten records one durable write: a full snapshot file or an
// appended tree-done record, its size and wall cost.
func (m *MasterObs) CheckpointWritten(snapshot bool, bytes int, d time.Duration) {
	if m == nil {
		return
	}
	if snapshot {
		m.ckSnapshots.Add(1)
	} else {
		m.ckRecords.Add(1)
	}
	m.ckBytes.Add(int64(bytes))
	m.ckNs.Add(int64(d))
}

// CheckpointError records a failed checkpoint write. Training continues —
// durability degrades, correctness does not — so the error is counted rather
// than fatal.
func (m *MasterObs) CheckpointError() {
	if m == nil {
		return
	}
	m.ckErrors.Add(1)
}

// RestoreCompleted records one successful checkpoint restore and how much
// damage the loader routed around.
func (m *MasterObs) RestoreCompleted(trees, skippedFiles, truncatedRecords int) {
	if m == nil {
		return
	}
	m.restores.Add(1)
	m.restoredTrees.Add(int64(trees))
	m.restoreSkipped.Add(int64(skippedFiles))
	m.restoreTruncated.Add(int64(truncatedRecords))
}

// TreeRestarted records one tree restart; restarts is the tree's running
// restart count, tracked as a high-water mark across trees.
func (m *MasterObs) TreeRestarted(restarts int) {
	if m == nil {
		return
	}
	m.treeRestarts.Add(1)
	for {
		hi := m.treeRestartHigh.Load()
		if int64(restarts) <= hi || m.treeRestartHigh.CompareAndSwap(hi, int64(restarts)) {
			return
		}
	}
}

// PlanPushed records one hybrid-policy insertion into B_plan.
func (m *MasterObs) PlanPushed(depthFirst bool) {
	if m == nil {
		return
	}
	if depthFirst {
		m.pushesDFS.Add(1)
	} else {
		m.pushesBFS.Add(1)
	}
}

// PlanRequeued records a revoked plan re-entering B_plan at the head.
func (m *MasterObs) PlanRequeued() {
	if m == nil {
		return
	}
	m.requeues.Add(1)
}

// SetDequeDepth updates the B_plan depth gauge and its high-water mark.
func (m *MasterObs) SetDequeDepth(n int) {
	if m == nil {
		return
	}
	m.dequeDepth.Store(int64(n))
	for {
		hi := m.dequeHigh.Load()
		if int64(n) <= hi || m.dequeHigh.CompareAndSwap(hi, int64(n)) {
			return
		}
	}
}

// SetPool updates the n_pool occupancy gauge and its high-water mark.
func (m *MasterObs) SetPool(n int) {
	if m == nil {
		return
	}
	m.pool.Store(int64(n))
	for {
		hi := m.poolHigh.Load()
		if int64(n) <= hi || m.poolHigh.CompareAndSwap(hi, int64(n)) {
			return
		}
	}
}

// TaskPlanned records one shipped attempt: |D_x| rows, attempt number.
func (m *MasterObs) TaskPlanned(size, attempt int) {
	if m == nil {
		return
	}
	m.planned.Add(1)
	m.rowsPlanned.Add(int64(size))
	for {
		hi := m.attemptHigh.Load()
		if int64(attempt) <= hi || m.attemptHigh.CompareAndSwap(hi, int64(attempt)) {
			break
		}
	}
}

// TaskConfirmed records a ConfirmSplit decision and the plan→decision span.
func (m *MasterObs) TaskConfirmed(sinceAssign time.Duration) {
	if m == nil {
		return
	}
	m.confirmed.Add(1)
	m.planNs.Add(int64(sinceAssign))
	m.planSpans.Add(1)
}

// TaskCompleted records a finished task (leaf, split-done or subtree graft).
func (m *MasterObs) TaskCompleted() {
	if m == nil {
		return
	}
	m.completed.Add(1)
}

// SplitApplied records the delegate's confirm→split-done span.
func (m *MasterObs) SplitApplied(sinceConfirm time.Duration) {
	if m == nil {
		return
	}
	m.confirmNs.Add(int64(sinceConfirm))
	m.confirmSpans.Add(1)
}

// TaskRetried records an attempt revoked and requeued for re-execution
// (task-retry deadline, worker error, extra-trees redraw, fault recovery).
func (m *MasterObs) TaskRetried() {
	if m == nil {
		return
	}
	m.retried.Add(1)
}

// TaskSuperseded records an attempt revoked without requeue: its tree
// restarted from the root (or the job failed), so the attempt is abandoned.
func (m *MasterObs) TaskSuperseded() {
	if m == nil {
		return
	}
	m.superseded.Add(1)
}

// HedgeLaunched records one duplicate attempt shipped because the original
// outlived HedgeFactor × the fleet latency estimate.
func (m *MasterObs) HedgeLaunched() {
	if m == nil {
		return
	}
	m.hedgesLaunched.Add(1)
}

// HedgeWon records a task whose winning result came from a hedged attempt.
func (m *MasterObs) HedgeWon() {
	if m == nil {
		return
	}
	m.hedgesWon.Add(1)
}

// HedgeWasted records one outstanding attempt cancelled because a sibling
// attempt of the same task won the race — duplicated work thrown away.
func (m *MasterObs) HedgeWasted() {
	if m == nil {
		return
	}
	m.hedgesWasted.Add(1)
}

// WorkerQuarantined records one circuit-breaker closed→open transition.
func (m *MasterObs) WorkerQuarantined() {
	if m == nil {
		return
	}
	m.quarantines.Add(1)
}

// ProbeSent records one probation probe shipped to a worker.
func (m *MasterObs) ProbeSent() {
	if m == nil {
		return
	}
	m.probesSent.Add(1)
}

// WorkerRestored records one probation pass: a quarantined worker answered
// its probe at normal speed and re-entered placement (half-open→closed).
func (m *MasterObs) WorkerRestored() {
	if m == nil {
		return
	}
	m.probations.Add(1)
}

// SetWorkerHealth overwrites the per-worker health gauge: scores are
// median-normalised (1 ≈ fleet-typical, lower is slower), states are the
// quarantine circuit states ("closed", "open", "half-open"). Both slices are
// copied.
func (m *MasterObs) SetWorkerHealth(scores []float64, states []string) {
	if m == nil {
		return
	}
	m.healthMu.Lock()
	m.healthScores = append(m.healthScores[:0], scores...)
	m.quarantineStates = append(m.quarantineStates[:0], states...)
	m.healthMu.Unlock()
}

// StreamRecordQueued records one checkpoint record handed to the standby
// stream loop, carrying bytes of payload.
func (m *MasterObs) StreamRecordQueued(bytes int) {
	if m == nil {
		return
	}
	m.streamRecords.Add(1)
	m.streamBytes.Add(int64(bytes))
}

// StreamRecordDropped records a checkpoint record dropped because the stream
// queue was full — the standby heals at the next snapshot.
func (m *MasterObs) StreamRecordDropped() {
	if m == nil {
		return
	}
	m.streamDropped.Add(1)
}

// StreamSendError records a checkpoint record lost to a transport failure.
func (m *MasterObs) StreamSendError() {
	if m == nil {
		return
	}
	m.streamErrors.Add(1)
}

// StreamApplied records the standby replica's running applied/stale record
// counts (overwrite semantics: the replica reports totals, not deltas).
func (m *MasterObs) StreamApplied(applied, stale int64) {
	if m == nil {
		return
	}
	m.streamApplied.Store(applied)
	m.streamStale.Store(stale)
}

// SetStreamLag updates the stream-lag gauge: records the primary queued minus
// records the standby last acknowledged applying.
func (m *MasterObs) SetStreamLag(lag int64) {
	if m == nil {
		return
	}
	m.streamLag.Store(lag)
}

// LeaseRenewed records one lease renewal shipped to the standby.
func (m *MasterObs) LeaseRenewed() {
	if m == nil {
		return
	}
	m.leaseRenewals.Add(1)
}

// LeaseAcked records one renewal acknowledgement received back.
func (m *MasterObs) LeaseAcked() {
	if m == nil {
		return
	}
	m.leaseAcks.Add(1)
}

// LeaseLost records a primary lease machine fencing — its renewals stopped
// being acknowledged (standby gone) or a higher generation was observed.
func (m *MasterObs) LeaseLost() {
	if m == nil {
		return
	}
	m.leaseLost.Add(1)
}

// FailoverCompleted records one standby promotion that drove the job to
// completion.
func (m *MasterObs) FailoverCompleted() {
	if m == nil {
		return
	}
	m.failovers.Add(1)
}

// BinRoundCompleted records one finished bin proposal/broadcast round and how
// many replica sketches the master merged to derive the bins.
func (m *MasterObs) BinRoundCompleted(sketchMerges int) {
	if m == nil {
		return
	}
	m.binRounds.Add(1)
	m.sketchMerges.Add(int64(sketchMerges))
}

// WorkerJoined records one worker admitted mid-job through the elastic join
// handshake (request → accept → replicas landed → ready → admit).
func (m *MasterObs) WorkerJoined() {
	if m == nil {
		return
	}
	m.joins.Add(1)
}

// JoinRejected records one refused join request: generation fence violated,
// fleet cap reached, or the master was mid-recovery.
func (m *MasterObs) JoinRejected() {
	if m == nil {
		return
	}
	m.joinRejects.Add(1)
}

// WorkerDrained records one worker gracefully drained: cordoned, its columns
// handed to survivors, quiesced and retired without failing the job.
func (m *MasterObs) WorkerDrained() {
	if m == nil {
		return
	}
	m.drains.Add(1)
}

// DrainShed records a cordoned worker that would not quiesce before the
// drain deadline (or tripped the quarantine breaker mid-drain) and was
// force-shed through the fail-stop path instead of retired gracefully.
func (m *MasterObs) DrainShed() {
	if m == nil {
		return
	}
	m.drainSheds.Add(1)
}

// ColumnsRebalanced records n column replicas moved between workers by
// join or drain rebalancing (re-replication on fail-stop is counted by the
// retry/requeue ledger instead).
func (m *MasterObs) ColumnsRebalanced(n int) {
	if m == nil {
		return
	}
	m.rebalancedCols.Add(int64(n))
}

// WorkerObs collects one worker's measured cost row — the observed
// M_work[w] = (Comp, Send, Recv) of Section VI — plus row-serving and pool
// behaviour. All methods are nil-safe.
type WorkerObs struct {
	id   int
	comp atomic.Int64 // ns compers spent executing jobs
	send atomic.Int64 // ns spent in (retried) sends
	recv atomic.Int64 // ns the dispatcher spent in message handlers
	jobs atomic.Int64

	rowServes  atomic.Int64 // delegate row-serve requests answered
	rowServeNs atomic.Int64

	rowSetHits   atomic.Int64 // RowSet pool reuses vs fresh allocations
	rowSetMisses atomic.Int64
}

// AddComp charges comper compute time.
func (w *WorkerObs) AddComp(d time.Duration) {
	if w == nil {
		return
	}
	w.comp.Add(int64(d))
	w.jobs.Add(1)
}

// AddSend charges time spent sending (including retries and backoff).
func (w *WorkerObs) AddSend(d time.Duration) {
	if w == nil {
		return
	}
	w.send.Add(int64(d))
}

// AddRecv charges receive-side handler time.
func (w *WorkerObs) AddRecv(d time.Duration) {
	if w == nil {
		return
	}
	w.recv.Add(int64(d))
}

// RowServed records one answered RowsRequest (Section V delegate serving).
func (w *WorkerObs) RowServed(d time.Duration) {
	if w == nil {
		return
	}
	w.rowServes.Add(1)
	w.rowServeNs.Add(int64(d))
}

// RowSetGet records one RowSet pool checkout.
func (w *WorkerObs) RowSetGet(hit bool) {
	if w == nil {
		return
	}
	if hit {
		w.rowSetHits.Add(1)
	} else {
		w.rowSetMisses.Add(1)
	}
}

// SplitCounters collects split-kernel dispatch and scratch-pool telemetry.
// All methods are nil-safe; the counters are bumped once per FindBest call,
// never per row, so the instrumented kernels stay within noise.
type SplitCounters struct {
	fastPath    atomic.Int64 // presorted membership-walk dispatches
	fallback    atomic.Int64 // numeric sort+sweep dispatches
	categorical atomic.Int64 // categorical kernel dispatches

	scratchHits   atomic.Int64 // scratch-pool reuses vs fresh allocations
	scratchMisses atomic.Int64

	histFills atomic.Int64 // histograms accumulated by scanning rows
	histSubs  atomic.Int64 // histograms derived by parent − sibling subtraction
}

// HistFilled records one histogram accumulated by a direct row scan.
func (c *SplitCounters) HistFilled() {
	if c == nil {
		return
	}
	c.histFills.Add(1)
}

// HistSubtracted records one histogram derived by subtracting the cached
// sibling from the cached parent instead of re-scanning rows.
func (c *SplitCounters) HistSubtracted() {
	if c == nil {
		return
	}
	c.histSubs.Add(1)
}

// DispatchFast records one presorted fast-path FindBest call.
func (c *SplitCounters) DispatchFast() {
	if c == nil {
		return
	}
	c.fastPath.Add(1)
}

// DispatchFallback records one numeric sort+sweep FindBest call.
func (c *SplitCounters) DispatchFallback() {
	if c == nil {
		return
	}
	c.fallback.Add(1)
}

// DispatchCategorical records one categorical-kernel FindBest call.
func (c *SplitCounters) DispatchCategorical() {
	if c == nil {
		return
	}
	c.categorical.Add(1)
}

// ScratchGet records one scratch-pool checkout.
func (c *SplitCounters) ScratchGet(hit bool) {
	if c == nil {
		return
	}
	if hit {
		c.scratchHits.Add(1)
	} else {
		c.scratchMisses.Add(1)
	}
}
