package cluster

import (
	"fmt"
	"sort"
	"time"

	"treeserver/internal/dataset"
	"treeserver/internal/sketch"
	"treeserver/internal/split"
)

// Master side of the histogram training mode: the bin-proposal round
// (ensureBins). Once per cluster, before the first hist job, the master
// collects one quantile summary per owned column from every alive worker,
// merges the replica summaries, derives immutable split.Bins, and broadcasts
// them until an alive quorum acks. Merging replica sketches of the same
// column collapses equal values into uniformly scaled weights, and the
// quantile extraction is scale-invariant, so the derived bins are identical
// regardless of which replicas happened to report — bins are deterministic
// across runs, restarts and failure patterns.
//
// Hist column tasks need nothing else from the master: under column
// partitioning a worker holds every row of its columns, so its best
// histogram candidate is already exact with respect to the bins, and it
// answers through ColumnResultMsg into the same handleColumnResult →
// decideSplit → ConfirmSplit flow as an exact column task.

// ensureBins runs the bin-proposal round if it has not completed yet. The
// caller holds m.jobMu, so the round can only interleave between jobs. Bins
// discretise feature columns, which never change for the life of the cluster,
// so one successful round serves every subsequent job (SetTarget swaps only
// the label column).
func (m *Master) ensureBins() error {
	m.mu.Lock()
	if m.binsReady {
		m.mu.Unlock()
		return nil
	}
	m.binSeq++
	seq := m.binSeq
	var alive []int
	for w, ok := range m.alive {
		if ok {
			alive = append(alive, w)
		}
	}
	m.binProps = map[int]*BinProposalMsg{}
	propCh := make(chan struct{}, 1)
	m.binPropCh = propCh
	m.mu.Unlock()

	req := BinProposalRequestMsg{Seq: seq, MaxBins: m.cfg.MaxBins}
	for _, w := range alive {
		m.send(w, req)
	}

	timeout := m.cfg.JobTimeout
	if timeout <= 0 {
		timeout = time.Minute
	}
	// Proposals are recomputed idempotently on the worker, so resending to
	// laggards is safe; as with SetTarget, resends only arm when the task
	// re-execution machinery provides a cadence.
	resendEvery := m.cfg.TaskRetry
	if resendEvery <= 0 {
		resendEvery = timeout
	}
	resend := time.NewTicker(resendEvery)
	defer resend.Stop()
	deadline := time.After(timeout)
	for {
		m.mu.Lock()
		var missing []int
		live := 0
		for _, w := range alive {
			if !m.alive[w] {
				continue
			}
			live++
			if _, ok := m.binProps[w]; !ok {
				missing = append(missing, w)
			}
		}
		done := live > 0 && len(missing) == 0
		m.mu.Unlock()
		if done {
			break
		}
		select {
		case <-propCh:
		case <-resend.C:
			for _, w := range missing {
				m.send(w, req)
			}
		case <-deadline:
			m.mu.Lock()
			m.binProps, m.binPropCh = nil, nil
			m.mu.Unlock()
			return fmt.Errorf("cluster: bin proposals not received from all workers within %v", timeout)
		case <-m.stop:
			return fmt.Errorf("cluster: master stopped")
		}
	}

	m.mu.Lock()
	props := m.binProps
	m.binProps, m.binPropCh = nil, nil
	cols := make([]int, 0, len(m.placement.Owners))
	for col := range m.placement.Owners {
		cols = append(cols, col)
	}
	m.mu.Unlock()

	bins, binsSlice, merges, err := mergeProposals(cols, props, m.cfg.MaxBins)
	if err != nil {
		return err
	}
	m.obs.BinRoundCompleted(merges)

	// Broadcast with the SetTarget quorum template: resend to unacked
	// workers; a worker that dies mid-round is out of the quorum.
	m.mu.Lock()
	m.bins = bins
	m.binAcks = map[int]bool{}
	ackCh := make(chan struct{})
	m.binAckCh = ackCh
	alive = alive[:0]
	for w, ok := range m.alive {
		if ok {
			alive = append(alive, w)
		}
	}
	m.binWant = len(alive)
	m.mu.Unlock()

	bcast := BinBroadcastMsg{Seq: seq, Bins: binsSlice}
	for _, w := range alive {
		m.send(w, bcast)
	}
	for {
		select {
		case <-ackCh:
			goto acked
		case <-resend.C:
			m.mu.Lock()
			var unacked []int
			live := 0
			for _, w := range alive {
				if !m.alive[w] {
					continue
				}
				live++
				if !m.binAcks[w] {
					unacked = append(unacked, w)
				}
			}
			done := live > 0 && len(unacked) == 0
			if done {
				m.binAckCh = nil
			}
			m.mu.Unlock()
			if done {
				goto acked
			}
			for _, w := range unacked {
				m.send(w, bcast)
			}
		case <-deadline:
			m.mu.Lock()
			m.binAckCh = nil
			m.mu.Unlock()
			return fmt.Errorf("cluster: bin broadcast not acknowledged by all workers within %v", timeout)
		case <-m.stop:
			return fmt.Errorf("cluster: master stopped")
		}
	}
acked:

	m.mu.Lock()
	m.binsReady = true
	m.mu.Unlock()
	return nil
}

// mergeProposals derives the cluster-wide bins from the collected per-worker
// sketches. Columns and reporting workers are iterated in sorted order, so
// the result is independent of map iteration and message arrival order. A
// column no reporting worker covers is an error: without bins its histograms
// would be meaningless.
func mergeProposals(cols []int, props map[int]*BinProposalMsg, maxBins int) (map[int]split.Bins, []split.Bins, int, error) {
	sort.Ints(cols)
	workers := make([]int, 0, len(props))
	byWorker := make(map[int]map[int]ColumnSketch, len(props))
	for w, p := range props {
		workers = append(workers, w)
		byCol := make(map[int]ColumnSketch, len(p.Sketches))
		for _, cs := range p.Sketches {
			byCol[cs.Col] = cs
		}
		byWorker[w] = byCol
	}
	sort.Ints(workers)

	bins := make(map[int]split.Bins, len(cols))
	binsSlice := make([]split.Bins, 0, len(cols))
	merges := 0
	for _, col := range cols {
		var merged *sketch.Sketch
		levels, reports := 0, 0
		categorical := false
		for _, w := range workers {
			cs, ok := byWorker[w][col]
			if !ok {
				continue
			}
			reports++
			if cs.Kind == dataset.Categorical {
				categorical = true
				if cs.Levels > levels {
					levels = cs.Levels
				}
				continue
			}
			if merged == nil {
				merged = sketch.New(histSketchSize(maxBins))
			}
			merged.Merge(sketch.FromEntries(histSketchSize(maxBins), cs.Entries))
			merges++
		}
		if reports == 0 {
			return nil, nil, 0, fmt.Errorf("cluster: no bin proposal covers column %d", col)
		}
		var b split.Bins
		if categorical {
			b = split.Bins{Col: col, Kind: dataset.Categorical, NumBins: levels}
		} else {
			b = split.BinsFromSketch(col, merged, maxBins)
		}
		bins[col] = b
		binsSlice = append(binsSlice, b)
	}
	return bins, binsSlice, merges, nil
}

// handleBinProposal records one worker's sketches (first delivery wins; the
// proposal recompute is deterministic, so duplicates carry identical data).
func (m *Master) handleBinProposal(msg BinProposalMsg) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.binProps == nil || msg.Seq != m.binSeq ||
		msg.Worker < 0 || msg.Worker >= m.cfg.NumWorkers {
		return
	}
	if _, dup := m.binProps[msg.Worker]; dup {
		return
	}
	p := msg
	m.binProps[msg.Worker] = &p
	select {
	case m.binPropCh <- struct{}{}:
	default:
	}
}

// handleBinAck records one worker's bin-broadcast acknowledgement.
func (m *Master) handleBinAck(msg BinAckMsg) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if msg.Seq != m.binSeq || m.binAckCh == nil {
		return
	}
	if !m.binAcks[msg.Worker] {
		m.binAcks[msg.Worker] = true
		if len(m.binAcks) >= m.binWant {
			close(m.binAckCh)
			m.binAckCh = nil
		}
	}
}
