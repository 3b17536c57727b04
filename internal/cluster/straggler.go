package cluster

import (
	"sort"
	"time"

	"treeserver/internal/loadbal"
	"treeserver/internal/task"
)

// Gray-failure tolerance. Fail-stop detection (heartbeatLoop) cannot see a
// worker that is merely slow: late-but-arriving pongs keep clearing the
// heartbeat budget while every task placed on the straggler burns its full
// per-attempt deadline before re-execution. Three mechanisms close the gap:
//
//  1. Straggler scoring. The master keeps per-worker EWMAs of two signals —
//     task latency per row and control-message round-trips — and normalises
//     each worker against the fleet median. A score of 1 is fleet-typical;
//     0.02 means 50× slower than peers. Median-relative scoring makes the
//     detector immune to uniform slowness (a loaded cluster moves the
//     median, not the scores).
//
//  2. Hedged execution. An attempt whose elapsed time exceeds HedgeFactor ×
//     the fleet latency estimate for its size gets a duplicate attempt on a
//     disjoint set of workers, without revoking the original. The first
//     complete attempt wins; losers are cancelled with attempt-tagged
//     DropTask messages carrying the loser's own attempt number, so a drop
//     can never destroy the winner's state and trees stay bit-identical to a
//     fault-free run.
//
//  3. Quarantine with probation. A worker scoring below QuarantineThreshold
//     is excluded from new placement (circuit open) until a probe
//     round-trip returns at fleet-typical speed (half-open → closed).
//     Placement treats quarantine as a soft preference: whenever no
//     preferred replica of a column exists the load balancer falls back to
//     quarantined holders, so k-replica reachability is never sacrificed,
//     and MaxQuarantined bounds how many workers scoring can sideline.

type circuitState uint8

const (
	circuitClosed   circuitState = iota // healthy: preferred for placement
	circuitOpen                         // quarantined: excluded from new placement
	circuitHalfOpen                     // probation: probe outstanding
)

func (s circuitState) String() string {
	switch s {
	case circuitOpen:
		return "open"
	case circuitHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

const (
	// healthAlpha weights the newest sample in the EWMAs.
	healthAlpha = 0.3
	// healthMinSamples observations are required before a worker is scored;
	// with fewer it scores a neutral 1.0.
	healthMinSamples = 3
	// healthSizeFloor clamps per-row normalisation so fixed per-task
	// overheads on tiny tasks do not read as slowness.
	healthSizeFloor = 64
	// probePassFactor: a half-open worker is restored when its probe RTT is
	// within this factor of the closed fleet's median probe RTT.
	probePassFactor = 2.0
	// probeRTTFloor is an absolute slack under which any probe RTT passes,
	// so microsecond-scale medians cannot flap probation on scheduler noise.
	probeRTTFloor = 2 * time.Millisecond
	// probeEvery paces probe waves while any circuit is open.
	probeEvery = 20 * time.Millisecond
	// healthTick paces the scoring/hedging loop.
	healthTick = 2 * time.Millisecond
	// maxOutstandingHedges bounds concurrent duplicate attempts — hedging is
	// a targeted countermeasure, not a general replication of the job.
	maxOutstandingHedges = 2
	// minHedgeDelay is the floor on the hedge trigger so sub-millisecond
	// estimate noise cannot spray duplicates.
	minHedgeDelay = 2 * time.Millisecond
)

// healthTracker scores workers and runs the quarantine circuit. All methods
// require the master's mutex; the tracker itself is lock-free state. A nil
// tracker is a no-op observer, so call sites need no feature gates.
type healthTracker struct {
	taskEwma    []float64 // ns per row of completed attempt shares
	taskSamples []int
	durEwma     []float64 // ns raw attempt duration: the fixed-cost component
	durSamples  []int
	rttEwma     []float64 // ns round-trip of pings and probes
	rttSamples  []int
	state       []circuitState

	pingSent map[int64]time.Time // ping seq → send time (pruned)
	probeSeq int64
	waveAt   map[int64]time.Time // probe wave seq → send time (pruned)
	lastWave time.Time
}

func newHealthTracker(n int) *healthTracker {
	return &healthTracker{
		taskEwma: make([]float64, n), taskSamples: make([]int, n),
		durEwma: make([]float64, n), durSamples: make([]int, n),
		rttEwma: make([]float64, n), rttSamples: make([]int, n),
		state:    make([]circuitState, n),
		pingSent: map[int64]time.Time{},
		waveAt:   map[int64]time.Time{},
	}
}

// grow extends the tracker to n workers with no samples and closed
// circuits, so a live-joined worker starts in good standing. Nil-safe
// (health tracking may be disabled); shrinking is a no-op.
func (h *healthTracker) grow(n int) {
	if h == nil {
		return
	}
	for len(h.state) < n {
		h.taskEwma = append(h.taskEwma, 0)
		h.taskSamples = append(h.taskSamples, 0)
		h.durEwma = append(h.durEwma, 0)
		h.durSamples = append(h.durSamples, 0)
		h.rttEwma = append(h.rttEwma, 0)
		h.rttSamples = append(h.rttSamples, 0)
		h.state = append(h.state, circuitClosed)
	}
}

func ewmaAdd(e *float64, count *int, sample float64) {
	if *count == 0 {
		*e = sample
	} else {
		*e = (1-healthAlpha)**e + healthAlpha*sample
	}
	*count++
}

// ObserveTask folds one completed attempt share into the worker's task-latency
// EWMA, normalised to nanoseconds per row.
func (h *healthTracker) ObserveTask(w, size int, elapsed time.Duration) {
	if h == nil || w < 0 || w >= len(h.taskEwma) {
		return
	}
	rows := size
	if rows < healthSizeFloor {
		rows = healthSizeFloor
	}
	ewmaAdd(&h.taskEwma[w], &h.taskSamples[w], float64(elapsed)/float64(rows))
	ewmaAdd(&h.durEwma[w], &h.durSamples[w], float64(elapsed))
}

// ObserveRTT folds one control round-trip into the worker's RTT EWMA.
func (h *healthTracker) ObserveRTT(w int, rtt time.Duration) {
	if h == nil || w < 0 || w >= len(h.rttEwma) {
		return
	}
	ewmaAdd(&h.rttEwma[w], &h.rttSamples[w], float64(rtt))
}

// PingSent records a heartbeat probe's departure so the matching pong yields
// an RTT sample.
func (h *healthTracker) PingSent(seq int64, now time.Time) {
	if h == nil {
		return
	}
	h.pingSent[seq] = now
	for s := range h.pingSent {
		if s < seq-8 {
			delete(h.pingSent, s)
		}
	}
}

// PongReceived resolves a pong against its recorded ping departure.
func (h *healthTracker) PongReceived(w int, seq int64, now time.Time) {
	if h == nil {
		return
	}
	if sent, ok := h.pingSent[seq]; ok {
		h.ObserveRTT(w, now.Sub(sent))
	}
}

// WorkerFailed clears a dead worker's quarantine state — fail-stop recovery
// owns it now — and forgets its samples so it cannot skew fleet medians.
func (h *healthTracker) WorkerFailed(w int) {
	if h == nil || w < 0 || w >= len(h.state) {
		return
	}
	h.state[w] = circuitClosed
	h.taskEwma[w], h.taskSamples[w] = 0, 0
	h.durEwma[w], h.durSamples[w] = 0, 0
	h.rttEwma[w], h.rttSamples[w] = 0, 0
}

// medianOf returns the median of ewma[w] over workers with at least
// minSamples observations that pass ok (nil = all); 0 when no worker
// qualifies.
func medianOf(ewma []float64, samples []int, minSamples int, ok func(int) bool) float64 {
	vals := make([]float64, 0, len(ewma))
	for w := range ewma {
		if samples[w] >= minSamples && (ok == nil || ok(w)) {
			vals = append(vals, ewma[w])
		}
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[mid]
	}
	return (vals[mid-1] + vals[mid]) / 2
}

// Scores returns per-worker health: the worse (minimum) of the two
// median-normalised signals, 1.0 for workers without enough data, 0 for dead
// workers. A fleet-typical worker scores ~1; a worker k× slower than the
// median scores ~1/k.
func (h *healthTracker) Scores(alive []bool) []float64 {
	out := make([]float64, len(h.state))
	isAlive := func(w int) bool { return alive == nil || (w < len(alive) && alive[w]) }
	taskMed := medianOf(h.taskEwma, h.taskSamples, healthMinSamples, isAlive)
	rttMed := medianOf(h.rttEwma, h.rttSamples, healthMinSamples, isAlive)
	for w := range out {
		if !isAlive(w) {
			continue // score 0
		}
		s := 1.0
		if taskMed > 0 && h.taskSamples[w] >= healthMinSamples && h.taskEwma[w] > taskMed {
			s = min(s, taskMed/h.taskEwma[w])
		}
		if rttMed > 0 && h.rttSamples[w] >= healthMinSamples && h.rttEwma[w] > rttMed {
			s = min(s, rttMed/h.rttEwma[w])
		}
		out[w] = s
	}
	return out
}

// Estimate predicts a healthy attempt latency for a task of the given size
// from the fleet-median per-row rate; 0 until enough data has accumulated.
func (h *healthTracker) Estimate(size int) time.Duration {
	med := medianOf(h.taskEwma, h.taskSamples, healthMinSamples, nil)
	if med == 0 {
		return 0
	}
	rows := size
	if rows < healthSizeFloor {
		rows = healthSizeFloor
	}
	return time.Duration(med * float64(rows))
}

// TypicalDuration is the fleet-median raw attempt duration. Small tasks are
// dominated by fixed costs (fabric round-trips, comper queueing) the per-row
// Estimate cannot see; the hedge trigger takes the worse of the two models so
// fleet-typical fixed latency never reads as straggling.
func (h *healthTracker) TypicalDuration() time.Duration {
	return time.Duration(medianOf(h.durEwma, h.durSamples, healthMinSamples, nil))
}

// evaluate opens the circuit on closed workers scoring below threshold,
// bounded so at most maxQ workers are sidelined at once. Returns the workers
// newly quarantined.
func (h *healthTracker) evaluate(scores []float64, threshold float64, maxQ int, alive []bool) []int {
	quarantined := 0
	for _, s := range h.state {
		if s != circuitClosed {
			quarantined++
		}
	}
	var opened []int
	for w := range h.state {
		if alive != nil && w < len(alive) && !alive[w] {
			continue
		}
		if h.state[w] == circuitClosed && scores[w] < threshold && quarantined < maxQ {
			h.state[w] = circuitOpen
			quarantined++
			opened = append(opened, w)
		}
	}
	return opened
}

// probeDue starts a probe wave when any circuit is non-closed and the wave
// interval has elapsed. Open circuits move to half-open. The wave probes
// EVERY alive worker, not just suspects: the healthy workers' acks are the
// baseline the suspects' probation is judged against.
func (h *healthTracker) probeDue(now time.Time, alive []bool) (seq int64, workers []int) {
	any := false
	for _, s := range h.state {
		if s != circuitClosed {
			any = true
			break
		}
	}
	if !any || now.Sub(h.lastWave) < probeEvery {
		return 0, nil
	}
	h.lastWave = now
	h.probeSeq++
	h.waveAt[h.probeSeq] = now
	for s := range h.waveAt {
		if s < h.probeSeq-8 {
			delete(h.waveAt, s)
		}
	}
	for w := range h.state {
		if alive != nil && w < len(alive) && !alive[w] {
			continue
		}
		if h.state[w] == circuitOpen {
			h.state[w] = circuitHalfOpen
		}
		workers = append(workers, w)
	}
	return h.probeSeq, workers
}

// ProbeAck folds a probe round-trip into the RTT EWMA and, for a half-open
// worker, decides probation: restored (true) when the RTT is fleet-typical,
// back to open otherwise (the next wave retries). A restored worker's stale
// slow EWMAs are discarded so it is not instantly re-quarantined.
func (h *healthTracker) ProbeAck(w int, seq int64, now time.Time) (restored bool) {
	if h == nil || w < 0 || w >= len(h.state) {
		return false
	}
	sent, ok := h.waveAt[seq]
	if !ok {
		return false
	}
	rtt := now.Sub(sent)
	h.ObserveRTT(w, rtt)
	if h.state[w] != circuitHalfOpen {
		return false
	}
	base := medianOf(h.rttEwma, h.rttSamples, 1, func(x int) bool { return h.state[x] == circuitClosed })
	if base == 0 || float64(rtt) <= probePassFactor*base || rtt <= probeRTTFloor {
		h.state[w] = circuitClosed
		h.taskEwma[w], h.taskSamples[w] = 0, 0
		h.durEwma[w], h.durSamples[w] = 0, 0
		h.rttEwma[w], h.rttSamples[w] = 0, 0
		return true
	}
	h.state[w] = circuitOpen
	return false
}

// preferredMask returns the placement preference for the load balancer: nil
// when every circuit is closed (no constraint), else true exactly for closed
// workers.
func (h *healthTracker) preferredMask() []bool {
	if h == nil {
		return nil
	}
	all := true
	for _, s := range h.state {
		if s != circuitClosed {
			all = false
			break
		}
	}
	if all {
		return nil
	}
	mask := make([]bool, len(h.state))
	for w, s := range h.state {
		mask[w] = s == circuitClosed
	}
	return mask
}

// stateStrings renders the circuit states for telemetry.
func (h *healthTracker) stateStrings() []string {
	out := make([]string, len(h.state))
	for w, s := range h.state {
		out[w] = s.String()
	}
	return out
}

// --- master integration ---

// healthLoop is the gray-failure control loop: it refreshes scores, runs the
// quarantine circuit and its probe waves, and launches hedged attempts for
// tasks outliving the fleet latency estimate.
func (m *Master) healthLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(healthTick)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
		}
		m.healthTick(time.Now())
	}
}

func (m *Master) healthTick(now time.Time) {
	m.mu.Lock()
	scores := m.health.Scores(m.alive)
	var opened []int
	var probeSeq int64
	var probes []int
	if m.cfg.QuarantineThreshold > 0 {
		opened = m.health.evaluate(scores, m.cfg.QuarantineThreshold, m.cfg.MaxQuarantined, m.alive)
		probeSeq, probes = m.health.probeDue(now, m.alive)
		m.refreshMaskLocked()
	}
	var hedges []task.ID
	if m.cfg.HedgeFactor > 0 {
		hedges = m.hedgeCandidatesLocked(now)
	}
	m.obs.SetWorkerHealth(scores, m.health.stateStrings())
	m.mu.Unlock()

	for range opened {
		m.obs.WorkerQuarantined()
	}
	for _, w := range probes {
		m.send(w, ProbeMsg{Seq: probeSeq})
		m.obs.ProbeSent()
	}
	for _, id := range hedges {
		m.hedgeTask(id)
	}
}

func (m *Master) handleProbeAck(msg ProbeAckMsg) {
	m.mu.Lock()
	restored := m.health.ProbeAck(msg.Worker, msg.Seq, time.Now())
	if restored {
		m.refreshMaskLocked()
	}
	m.mu.Unlock()
	if restored {
		m.obs.WorkerRestored()
	}
}

// hedgeCandidatesLocked selects tasks whose sole attempt has outlived
// HedgeFactor × the fleet latency model: the worse of the size-scaled
// per-row estimate and the typical raw attempt duration.
func (m *Master) hedgeCandidatesLocked(now time.Time) []task.ID {
	outstanding := 0
	for _, entry := range m.tasks {
		if len(entry.attempts) > 1 {
			outstanding++
		}
	}
	var out []task.ID
	for id, entry := range m.tasks {
		if outstanding >= maxOutstandingHedges {
			break
		}
		if entry.hedged || entry.winner != 0 || len(entry.attempts) != 1 {
			continue
		}
		est := m.health.Estimate(entry.plan.size)
		typ := m.health.TypicalDuration()
		if est == 0 || typ == 0 {
			continue // estimator still cold
		}
		trigger := time.Duration(m.cfg.HedgeFactor * float64(max(est, typ)))
		if trigger < minHedgeDelay {
			trigger = minHedgeDelay
		}
		if now.Sub(entry.assignedAt) <= trigger {
			continue
		}
		out = append(out, id)
		outstanding++
	}
	return out
}

// hedgeTask launches a duplicate attempt for a slow task on workers disjoint
// from every outstanding attempt. Disjointness is a correctness requirement,
// not an optimisation: the worker task table is keyed by task ID alone, so a
// duplicate landing on an involved worker would overwrite the original
// attempt's state there. When placement cannot satisfy it — the load
// balancer's last-ditch owners[0] fallback may pick an excluded holder — the
// hedge is aborted and its charges reverted; the original keeps running and
// the per-attempt deadline remains the recovery of last resort.
func (m *Master) hedgeTask(id task.ID) {
	m.mu.Lock()
	entry, ok := m.tasks[id]
	if !ok || entry.hedged || entry.winner != 0 || len(entry.attempts) != 1 {
		m.mu.Unlock()
		return
	}
	p := entry.plan
	a, live := m.trees[p.tree]
	if !live || a.epoch != p.epoch {
		m.mu.Unlock()
		return
	}
	excluded := make(map[int]bool)
	for _, as := range entry.attempts {
		if p.kind == task.SubtreeTask {
			// Only the key worker holds wtask state for a subtree task; its
			// column servers answer stateless shard requests and may overlap.
			excluded[as.keyWorker] = true
		} else {
			for w := range as.involved {
				excluded[w] = true
			}
		}
	}
	avail := make([]bool, len(m.alive))
	spare := false
	for w := range avail {
		avail[w] = m.alive[w] && !excluded[w]
		spare = spare || avail[w]
	}
	if !spare {
		m.mu.Unlock()
		return // no spare capacity to hedge on
	}
	elig := loadbal.Eligibility{Alive: avail, Preferred: m.healthMask}
	var assignment loadbal.Assignment
	if p.kind == task.SubtreeTask {
		assignment = loadbal.AssignSubtree(m.matrix, m.placement, entry.spec.cols, p.size, p.parent.Worker, elig)
		if assignment.KeyWorker < 0 || excluded[assignment.KeyWorker] {
			m.matrix.Revert(assignment.Charges)
			m.mu.Unlock()
			return
		}
	} else {
		assignment = loadbal.AssignColumns(m.matrix, m.placement, entry.spec.cols, p.size, p.parent.Worker, elig)
		for _, w := range assignment.ColumnServer {
			if excluded[w] || !m.alive[w] {
				m.matrix.Revert(assignment.Charges)
				m.mu.Unlock()
				return
			}
		}
	}
	p.attempt++
	attempt := p.attempt
	as := newAttemptState(p.kind, attempt, true, assignment, time.Now())
	entry.attempts[attempt] = as
	entry.hedged = true
	spec := entry.spec
	m.obs.HedgeLaunched()
	m.mu.Unlock()

	m.shipAttempt(p, spec, attempt, assignment)
}
