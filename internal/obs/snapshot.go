package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Snapshot is a point-in-time copy of a Registry with plain exported fields,
// so it gob/JSON-serialises without ceremony. Tests assert on it, benchtab
// embeds it, and the debug mux serves it.
type Snapshot struct {
	UptimeSeconds float64
	Master        MasterSnapshot
	Workers       []WorkerSnapshot // sorted by ID
	Links         []LinkSnapshot   // sorted by (From, To)
	Messages      []MessageCount   // sorted by Type
	Split         SplitSnapshot
	Serve         ServeSnapshot
}

// MasterSnapshot is the master-side scheduling state.
type MasterSnapshot struct {
	// B_plan behaviour under the hybrid policy.
	PushesBFS, PushesDFS, Requeues int64
	DequeDepth, DequeHighWater     int64
	// n_pool occupancy (trees under construction).
	PoolOccupancy, PoolHighWater int64
	// Task lifecycle. At quiescence after a successful job,
	// Planned == Completed + Retried + Superseded.
	TasksPlanned, TasksConfirmed, TasksCompleted int64
	TasksRetried, TasksSuperseded                int64
	// Σ|D_x| over planned attempts, and the deepest attempt number reached.
	RowsPlanned, MaxAttempt int64
	// Stage-latency sums: plan→decision and confirm→split-done.
	PlanToDecideNs, PlanToDecideSpans     int64
	ConfirmToSplitNs, ConfirmToSplitSpans int64
	// Checkpoint writes: snapshot files, appended records, bytes, wall time
	// and non-fatal write failures.
	CheckpointSnapshots, CheckpointRecords int64
	CheckpointBytes, CheckpointNs          int64
	CheckpointErrors                       int64
	// Restores: successful recoveries, trees recovered, and damage routed
	// around (files skipped whole, tail records dropped).
	Restores, RestoredTrees                      int64
	RestoreSkippedFiles, RestoreTruncatedRecords int64
	// Tree restarts (delegate-loss recovery), total and per-tree maximum.
	TreeRestarts, TreeRestartMax int64
	// Hedged execution: duplicates launched, races won by the hedge, and
	// attempts cancelled as wasted work.
	HedgesLaunched, HedgesWon, HedgesWasted int64
	// Quarantine circuit breaker: open transitions, probes shipped and
	// probation passes (restores).
	Quarantines, ProbesSent, QuarantineRestores int64
	// Hot standby: checkpoint records streamed (queued/bytes/dropped/send
	// errors), the replica's applied/stale totals, the stream-lag gauge,
	// lease traffic, lease machines fenced and promotions completed.
	StreamRecords, StreamBytes            int64
	StreamDropped, StreamErrors           int64
	StreamApplied, StreamStale, StreamLag int64
	LeaseRenewals, LeaseAcks              int64
	LeaseLost, Failovers                  int64
	// Histogram mode: bin rounds run, replica sketches merged.
	BinRounds, SketchMerges int64
	// Elastic fleet: workers joined mid-job, join requests rejected, workers
	// gracefully drained (and force-shed drains), column replicas moved by
	// join/drain rebalancing.
	Joins, JoinRejects int64
	Drains, DrainSheds int64
	RebalancedColumns  int64
	// Health gauge at snapshot time: per-worker median-normalised scores
	// (1 ≈ fleet-typical, lower is slower) and circuit states.
	HealthScores     []float64
	QuarantineStates []string
}

// WorkerSnapshot is one worker's measured cost row plus pool behaviour.
type WorkerSnapshot struct {
	ID                       int
	CompNs, SendNs, RecvNs   int64
	Jobs                     int64
	RowServes, RowServeNs    int64
	RowSetHits, RowSetMisses int64
}

// LinkSnapshot is one directed link's traffic.
type LinkSnapshot struct {
	From, To             string
	Msgs, Bytes, Retries int64
}

// MessageCount is one wire message type's traffic across all links.
type MessageCount struct {
	Type         string
	Count, Bytes int64
}

// SplitSnapshot is the split-kernel dispatch and scratch-pool telemetry.
type SplitSnapshot struct {
	FastPath, Fallback, Categorical int64
	ScratchHits, ScratchMisses      int64
	// Histogram-kernel accumulation: direct row-scan fills vs histograms
	// derived by parent − sibling subtraction.
	HistFills, HistSubtractions int64
}

// Snapshot copies the registry's current state. Safe on a nil receiver
// (returns the zero Snapshot) and concurrently with ongoing updates —
// individual counters are read atomically, so the result is a consistent
// enough view for invariant checks at quiescence.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{
		UptimeSeconds: time.Since(r.start).Seconds(),
		Master: MasterSnapshot{
			PushesBFS:               r.master.pushesBFS.Load(),
			PushesDFS:               r.master.pushesDFS.Load(),
			Requeues:                r.master.requeues.Load(),
			DequeDepth:              r.master.dequeDepth.Load(),
			DequeHighWater:          r.master.dequeHigh.Load(),
			PoolOccupancy:           r.master.pool.Load(),
			PoolHighWater:           r.master.poolHigh.Load(),
			TasksPlanned:            r.master.planned.Load(),
			TasksConfirmed:          r.master.confirmed.Load(),
			TasksCompleted:          r.master.completed.Load(),
			TasksRetried:            r.master.retried.Load(),
			TasksSuperseded:         r.master.superseded.Load(),
			RowsPlanned:             r.master.rowsPlanned.Load(),
			MaxAttempt:              r.master.attemptHigh.Load(),
			PlanToDecideNs:          r.master.planNs.Load(),
			PlanToDecideSpans:       r.master.planSpans.Load(),
			ConfirmToSplitNs:        r.master.confirmNs.Load(),
			ConfirmToSplitSpans:     r.master.confirmSpans.Load(),
			CheckpointSnapshots:     r.master.ckSnapshots.Load(),
			CheckpointRecords:       r.master.ckRecords.Load(),
			CheckpointBytes:         r.master.ckBytes.Load(),
			CheckpointNs:            r.master.ckNs.Load(),
			CheckpointErrors:        r.master.ckErrors.Load(),
			Restores:                r.master.restores.Load(),
			RestoredTrees:           r.master.restoredTrees.Load(),
			RestoreSkippedFiles:     r.master.restoreSkipped.Load(),
			RestoreTruncatedRecords: r.master.restoreTruncated.Load(),
			TreeRestarts:            r.master.treeRestarts.Load(),
			TreeRestartMax:          r.master.treeRestartHigh.Load(),
			HedgesLaunched:          r.master.hedgesLaunched.Load(),
			HedgesWon:               r.master.hedgesWon.Load(),
			HedgesWasted:            r.master.hedgesWasted.Load(),
			Quarantines:             r.master.quarantines.Load(),
			ProbesSent:              r.master.probesSent.Load(),
			QuarantineRestores:      r.master.probations.Load(),
			StreamRecords:           r.master.streamRecords.Load(),
			StreamBytes:             r.master.streamBytes.Load(),
			StreamDropped:           r.master.streamDropped.Load(),
			StreamErrors:            r.master.streamErrors.Load(),
			StreamApplied:           r.master.streamApplied.Load(),
			StreamStale:             r.master.streamStale.Load(),
			StreamLag:               r.master.streamLag.Load(),
			LeaseRenewals:           r.master.leaseRenewals.Load(),
			LeaseAcks:               r.master.leaseAcks.Load(),
			LeaseLost:               r.master.leaseLost.Load(),
			Failovers:               r.master.failovers.Load(),
			BinRounds:               r.master.binRounds.Load(),
			SketchMerges:            r.master.sketchMerges.Load(),
			Joins:                   r.master.joins.Load(),
			JoinRejects:             r.master.joinRejects.Load(),
			Drains:                  r.master.drains.Load(),
			DrainSheds:              r.master.drainSheds.Load(),
			RebalancedColumns:       r.master.rebalancedCols.Load(),
		},
		Split: SplitSnapshot{
			FastPath:         r.split.fastPath.Load(),
			Fallback:         r.split.fallback.Load(),
			Categorical:      r.split.categorical.Load(),
			ScratchHits:      r.split.scratchHits.Load(),
			ScratchMisses:    r.split.scratchMisses.Load(),
			HistFills:        r.split.histFills.Load(),
			HistSubtractions: r.split.histSubs.Load(),
		},
	}
	s.Serve = r.serve.snapshot(s.UptimeSeconds)

	r.master.healthMu.Lock()
	s.Master.HealthScores = append([]float64(nil), r.master.healthScores...)
	s.Master.QuarantineStates = append([]string(nil), r.master.quarantineStates...)
	r.master.healthMu.Unlock()

	r.mu.Lock()
	for _, w := range r.workers {
		s.Workers = append(s.Workers, WorkerSnapshot{
			ID:           w.id,
			CompNs:       w.comp.Load(),
			SendNs:       w.send.Load(),
			RecvNs:       w.recv.Load(),
			Jobs:         w.jobs.Load(),
			RowServes:    w.rowServes.Load(),
			RowServeNs:   w.rowServeNs.Load(),
			RowSetHits:   w.rowSetHits.Load(),
			RowSetMisses: w.rowSetMisses.Load(),
		})
	}
	r.mu.Unlock()
	sort.Slice(s.Workers, func(i, j int) bool { return s.Workers[i].ID < s.Workers[j].ID })

	r.links.Range(func(k, v any) bool {
		lc := v.(*LinkCounters)
		key := k.(string)
		from, to, _ := strings.Cut(key, "→")
		s.Links = append(s.Links, LinkSnapshot{
			From: from, To: to,
			Msgs: lc.msgs.Load(), Bytes: lc.bytes.Load(), Retries: lc.retries.Load(),
		})
		return true
	})
	sort.Slice(s.Links, func(i, j int) bool {
		if s.Links[i].From != s.Links[j].From {
			return s.Links[i].From < s.Links[j].From
		}
		return s.Links[i].To < s.Links[j].To
	})

	r.msgs.Range(func(k, v any) bool {
		mc := v.(*MsgCounters)
		s.Messages = append(s.Messages, MessageCount{
			Type: k.(string), Count: mc.count.Load(), Bytes: mc.bytes.Load(),
		})
		return true
	})
	sort.Slice(s.Messages, func(i, j int) bool { return s.Messages[i].Type < s.Messages[j].Type })
	return s
}

// MWork returns the measured cost matrix in the same shape and units as
// loadbal.Matrix.Snapshot(): one row per worker (aligned with s.Workers),
// columns Comp/Send/Recv in seconds.
func (s Snapshot) MWork() [][3]float64 {
	out := make([][3]float64, len(s.Workers))
	for i, w := range s.Workers {
		out[i] = [3]float64{
			float64(w.CompNs) / 1e9,
			float64(w.SendNs) / 1e9,
			float64(w.RecvNs) / 1e9,
		}
	}
	return out
}

// Retries sums re-attempted sends across all links.
func (s Snapshot) Retries() int64 {
	var n int64
	for _, l := range s.Links {
		n += l.Retries
	}
	return n
}

// Report renders the end-of-train summary cmd/treeserver prints: the
// measured M_work matrix, B_plan behaviour, the task-lifecycle ledger and
// the heaviest links and message types.
func (s Snapshot) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== telemetry (%.2fs) ===\n", s.UptimeSeconds)

	m := s.Master
	fmt.Fprintf(&b, "tasks: planned %d, confirmed %d, completed %d, retried %d, superseded %d (max attempt %d, Σ|D_x| %d)\n",
		m.TasksPlanned, m.TasksConfirmed, m.TasksCompleted, m.TasksRetried, m.TasksSuperseded, m.MaxAttempt, m.RowsPlanned)
	fmt.Fprintf(&b, "B_plan: %d bfs / %d dfs pushes, %d requeues, high-water %d; n_pool high-water %d\n",
		m.PushesBFS, m.PushesDFS, m.Requeues, m.DequeHighWater, m.PoolHighWater)
	if m.PlanToDecideSpans > 0 {
		fmt.Fprintf(&b, "spans: plan→decide avg %s over %d", time.Duration(m.PlanToDecideNs/m.PlanToDecideSpans), m.PlanToDecideSpans)
		if m.ConfirmToSplitSpans > 0 {
			fmt.Fprintf(&b, ", confirm→split avg %s over %d", time.Duration(m.ConfirmToSplitNs/m.ConfirmToSplitSpans), m.ConfirmToSplitSpans)
		}
		b.WriteString("\n")
	}
	if m.CheckpointSnapshots+m.CheckpointRecords > 0 {
		fmt.Fprintf(&b, "checkpoint: %d snapshots, %d records, %d bytes in %s (%d write errors)\n",
			m.CheckpointSnapshots, m.CheckpointRecords, m.CheckpointBytes, time.Duration(m.CheckpointNs), m.CheckpointErrors)
	}
	if m.Restores > 0 {
		fmt.Fprintf(&b, "recovery: %d restore(s), %d trees recovered; %d corrupt files skipped, %d torn records dropped\n",
			m.Restores, m.RestoredTrees, m.RestoreSkippedFiles, m.RestoreTruncatedRecords)
	}
	if m.TreeRestarts > 0 {
		fmt.Fprintf(&b, "tree restarts: %d total, worst tree %d\n", m.TreeRestarts, m.TreeRestartMax)
	}
	if m.HedgesLaunched > 0 {
		fmt.Fprintf(&b, "hedging: %d launched, %d won, %d wasted\n",
			m.HedgesLaunched, m.HedgesWon, m.HedgesWasted)
	}
	if m.Quarantines > 0 || m.ProbesSent > 0 {
		fmt.Fprintf(&b, "quarantine: %d opened, %d restored, %d probes\n",
			m.Quarantines, m.QuarantineRestores, m.ProbesSent)
	}
	if m.StreamRecords+m.StreamDropped > 0 || m.LeaseRenewals > 0 || m.Failovers > 0 {
		fmt.Fprintf(&b, "standby: %d records streamed (%d bytes, %d dropped, %d send errors), replica applied %d / stale %d, lag %d; lease %d renewals / %d acks, %d lost; %d failover(s)\n",
			m.StreamRecords, m.StreamBytes, m.StreamDropped, m.StreamErrors,
			m.StreamApplied, m.StreamStale, m.StreamLag,
			m.LeaseRenewals, m.LeaseAcks, m.LeaseLost, m.Failovers)
	}
	if m.BinRounds > 0 {
		fmt.Fprintf(&b, "hist mode: %d bin round(s) merging %d sketches\n",
			m.BinRounds, m.SketchMerges)
	}
	if m.Joins+m.JoinRejects+m.Drains+m.DrainSheds > 0 {
		fmt.Fprintf(&b, "elastic: %d join(s), %d rejected, %d drain(s) (%d force-shed), %d columns rebalanced\n",
			m.Joins, m.JoinRejects, m.Drains, m.DrainSheds, m.RebalancedColumns)
	}
	if len(m.HealthScores) > 0 {
		b.WriteString("worker health:")
		for w, sc := range m.HealthScores {
			fmt.Fprintf(&b, " w%d=%.2f", w, sc)
			if w < len(m.QuarantineStates) && m.QuarantineStates[w] != "closed" {
				fmt.Fprintf(&b, "(%s)", m.QuarantineStates[w])
			}
		}
		b.WriteString("\n")
	}

	if len(s.Workers) > 0 {
		b.WriteString("measured M_work (seconds):\n")
		b.WriteString("  worker      comp      send      recv   jobs  row-serves  rowset hit/miss\n")
		for _, w := range s.Workers {
			fmt.Fprintf(&b, "  w%-5d %9.3f %9.3f %9.3f %6d %11d  %d/%d\n",
				w.ID, float64(w.CompNs)/1e9, float64(w.SendNs)/1e9, float64(w.RecvNs)/1e9,
				w.Jobs, w.RowServes, w.RowSetHits, w.RowSetMisses)
		}
	}

	sp := s.Split
	if sp.FastPath+sp.Fallback+sp.Categorical > 0 {
		fmt.Fprintf(&b, "split kernels: %d presorted fast-path, %d sort+sweep, %d categorical; scratch pool %d/%d hit/miss\n",
			sp.FastPath, sp.Fallback, sp.Categorical, sp.ScratchHits, sp.ScratchMisses)
	}
	if sp.HistFills+sp.HistSubtractions > 0 {
		fmt.Fprintf(&b, "hist kernel: %d fills, %d subtraction hits\n", sp.HistFills, sp.HistSubtractions)
	}

	if sv := s.Serve; sv.Requests > 0 {
		fmt.Fprintf(&b, "serving: %d requests (%d errors, %d rows, %d swaps), %.1f qps, p50 ≤%s p99 ≤%s\n",
			sv.Requests, sv.Errors, sv.Rows, sv.Swaps, sv.QPS,
			time.Duration(sv.P50Ns), time.Duration(sv.P99Ns))
		for _, mdl := range sv.Models {
			fmt.Fprintf(&b, "  model %-16s %8d requests %6d errors %10d rows\n",
				mdl.Name, mdl.Requests, mdl.Errors, mdl.Rows)
		}
	}
	if sv := s.Serve; sv.Sheds+sv.DeadlineExceeded+sv.CanaryPromotes+sv.CanaryRollbacks+sv.Drains > 0 {
		fmt.Fprintf(&b, "resilience: %d shed, %d deadline-exceeded, %d canary promotes, %d canary rollbacks, %d drains (%d requests drained)\n",
			sv.Sheds, sv.DeadlineExceeded, sv.CanaryPromotes, sv.CanaryRollbacks, sv.Drains, sv.DrainedRequests)
	}

	if len(s.Links) > 0 {
		links := append([]LinkSnapshot(nil), s.Links...)
		sort.Slice(links, func(i, j int) bool { return links[i].Bytes > links[j].Bytes })
		if len(links) > 8 {
			links = links[:8]
		}
		b.WriteString("heaviest links:\n")
		for _, l := range links {
			fmt.Fprintf(&b, "  %-8s → %-8s %8d msgs %12d bytes %5d retries\n", l.From, l.To, l.Msgs, l.Bytes, l.Retries)
		}
	}

	if len(s.Messages) > 0 {
		msgs := append([]MessageCount(nil), s.Messages...)
		sort.Slice(msgs, func(i, j int) bool { return msgs[i].Bytes > msgs[j].Bytes })
		if len(msgs) > 8 {
			msgs = msgs[:8]
		}
		b.WriteString("heaviest message types:\n")
		for _, mc := range msgs {
			fmt.Fprintf(&b, "  %-24s %8d msgs %12d bytes\n", mc.Type, mc.Count, mc.Bytes)
		}
	}
	return b.String()
}
