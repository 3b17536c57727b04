package cluster

import (
	"encoding/gob"

	"treeserver/internal/dataset"
	"treeserver/internal/sketch"
	"treeserver/internal/split"
)

// Wire messages of the distributed histogram training mode ("-mode hist").
// The protocol has two phases layered on the existing task machinery:
//
//  1. Bin proposal (once per cluster, before the first hist job): the master
//     broadcasts BinProposalRequestMsg; every worker sketches each owned
//     numeric column and replies with BinProposalMsg; the master merges the
//     replica sketches per column, derives immutable split.Bins, and
//     broadcasts them in BinBroadcastMsg until an alive quorum acks with
//     BinAckMsg (the SetTarget quorum template).
//
//  2. Per column-task: workers answer hist-mode ColumnPlanMsgs with the
//     ordinary ColumnResultMsg — their best histogram candidate over the
//     assigned columns, exact with respect to the bins because a worker holds
//     every row of its columns — and the master confirms the winner through
//     the unchanged ConfirmSplit flow. No histogram ever crosses the wire.

// histSketchSize is the per-column quantile-summary size used by both the
// workers (proposal) and the master (merge).
func histSketchSize(maxBins int) int { return split.SketchCapacity(maxBins) }

// ColumnSketch is one column's bin-proposal payload: a quantile summary for
// numeric columns, the level count for categorical ones.
type ColumnSketch struct {
	Col     int
	Kind    dataset.Kind
	Levels  int            // categorical: number of levels
	Entries []sketch.Entry // numeric: compressed weighted summary
}

// BinProposalRequestMsg asks a worker to sketch every column it holds.
type BinProposalRequestMsg struct {
	Seq     int64
	MaxBins int
}

// BinProposalMsg carries one worker's sketches back to the master.
type BinProposalMsg struct {
	Worker   int
	Seq      int64
	Sketches []ColumnSketch
}

// BinBroadcastMsg installs the merged, immutable per-column bins on a worker.
// Workers pre-bin their held columns before acking, so a quorum of acks means
// the fleet is ready to fill histograms.
type BinBroadcastMsg struct {
	Seq  int64
	Bins []split.Bins
}

// BinAckMsg confirms a BinBroadcastMsg was applied.
type BinAckMsg struct {
	Worker int
	Seq    int64
}

func init() {
	gob.Register(BinProposalRequestMsg{})
	gob.Register(BinProposalMsg{})
	gob.Register(BinBroadcastMsg{})
	gob.Register(BinAckMsg{})
}
