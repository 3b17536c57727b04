package cluster

import (
	"sort"
	"sync"

	"treeserver/internal/dataset"
	"treeserver/internal/sketch"
	"treeserver/internal/split"
	"treeserver/internal/task"
)

// Worker side of the histogram training mode: bin proposal and installation,
// and the per-node histogram kernel with parent − sibling subtraction.

// histCacheBudget bounds the per-worker node-histogram cache (FIFO eviction)
// by memory rather than entry count: an entry's cost is dominated by its W
// array (NumBins × stride float64s), so coarse bins afford a much deeper
// cache. Depth matters — a subtraction hit needs the parent entry to survive
// until the later sibling runs, and a frontier at depth d holds O(2^d ×
// owned columns) live parents, so a count cap tuned for fine bins starves
// coarse-bin runs of exactly the hits they were promised.
const histCacheBudget = 64 << 20

// defaultHistCacheCap sizes the cache before any bin broadcast fixes the
// histogram geometry.
const defaultHistCacheCap = 8192

// histCacheCap converts the byte budget into an entry cap for one bin
// geometry (the constant accounts for entry, key-alias, and map-slot
// overhead).
func histCacheCap(numBins, classes int) int {
	stride := 3
	if classes > 0 {
		stride = classes
	}
	entryBytes := numBins*stride*8 + 256
	c := histCacheBudget / entryBytes
	if c < 1024 {
		return 1024
	}
	return c
}

// selfSide marks a histKey addressing a task's own rows, as opposed to one
// side of the split the task later confirms.
const selfSide uint8 = 255

// histKey addresses one cached node histogram. A task's histogram is stored
// under its own (id, selfSide, col) key and, when the task is not a tree
// root, aliased under its parent's (task, side, col) — the address its future
// sibling derives it by.
type histKey struct {
	id   task.ID
	side uint8
	col  int
}

type histCacheEntry struct {
	keys []histKey
	h    *split.Hist
}

// histCache is the bounded per-worker node-histogram cache backing histogram
// subtraction. Cached histograms are immutable and owned by the cache:
// eviction drops the reference for the GC rather than returning it to the
// hist pool, because an evicted histogram may still be held by a reader.
type histCache struct {
	mu      sync.Mutex
	entries map[histKey]*histCacheEntry
	fifo    []*histCacheEntry
	cap     int
}

func newHistCache(capacity int) *histCache {
	return &histCache{entries: make(map[histKey]*histCacheEntry, mapHint(capacity)), cap: capacity}
}

// mapHint pre-sizes the key map for a full cache (each entry lands under two
// keys: self + parent alias), bounded so byte-budgeted caps in the hundreds
// of thousands don't allocate a huge empty table up front.
func mapHint(capacity int) int {
	if h := 2 * capacity; h < 1<<16 {
		return h
	}
	return 1 << 16
}

func (c *histCache) get(k histKey) *split.Hist {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok {
		return e.h
	}
	return nil
}

// put stores h under the task's self key plus its parent-side alias. The
// first store wins: a re-executed attempt recomputes the same rows, so a
// duplicate is identical and the cached copy may already be referenced.
func (c *histCache) put(id task.ID, parent ParentRef, col int, h *split.Hist) {
	self := histKey{id: id, side: selfSide, col: col}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entries[self]; dup {
		return
	}
	e := &histCacheEntry{keys: []histKey{self}, h: h}
	if !parent.IsRoot() {
		e.keys = append(e.keys, histKey{id: parent.Task, side: parent.Side, col: col})
	}
	for _, k := range e.keys {
		c.entries[k] = e
	}
	c.fifo = append(c.fifo, e)
	for len(c.fifo) > c.cap {
		old := c.fifo[0]
		c.fifo = c.fifo[1:]
		for _, k := range old.keys {
			if c.entries[k] == old {
				delete(c.entries, k)
			}
		}
	}
}

// resize re-bounds the cache for a new bin geometry, evicting oldest
// entries when the new cap is smaller than the current population.
func (c *histCache) resize(capacity int) {
	c.mu.Lock()
	c.cap = capacity
	for len(c.fifo) > c.cap {
		old := c.fifo[0]
		c.fifo = c.fifo[1:]
		for _, k := range old.keys {
			if c.entries[k] == old {
				delete(c.entries, k)
			}
		}
	}
	c.mu.Unlock()
}

func (c *histCache) reset() {
	c.mu.Lock()
	c.entries = make(map[histKey]*histCacheEntry, mapHint(c.cap))
	c.fifo = nil
	c.mu.Unlock()
}

// handleBinProposalRequest sketches every owned feature column and ships the
// summaries. The recompute is deterministic (row-order Add over immutable
// columns), so answering a resent request is idempotent.
func (w *Worker) handleBinProposalRequest(msg BinProposalRequestMsg) {
	w.enqueue(func() {
		w.mu.Lock()
		cols := make([]int, 0, len(w.cols))
		for c := range w.cols {
			cols = append(cols, c)
		}
		target := w.schema.Target
		w.mu.Unlock()
		sort.Ints(cols)

		sketches := make([]ColumnSketch, 0, len(cols))
		for _, c := range cols {
			if c == target {
				continue
			}
			w.mu.Lock()
			col := w.cols[c]
			w.mu.Unlock()
			if col == nil {
				continue
			}
			cs := ColumnSketch{Col: c, Kind: col.Kind}
			if col.Kind == dataset.Categorical {
				cs.Levels = col.NumLevels()
			} else {
				sk := sketch.New(histSketchSize(msg.MaxBins))
				vals := make([]float64, 0, col.Len())
				for r := 0; r < col.Len(); r++ {
					if !col.IsMissing(r) {
						vals = append(vals, col.Floats[r])
					}
				}
				sk.AddBulk(vals)
				cs.Entries = sk.Entries()
			}
			sketches = append(sketches, cs)
		}
		w.send(MasterName, BinProposalMsg{Worker: w.id, Seq: msg.Seq, Sketches: sketches})
	})
}

// handleBinBroadcast installs the merged bins (fenced by Seq), pre-bins every
// owned column off the receive loop, and acks. A re-delivered sequence is
// only re-acked — the ack may be the lost half of the exchange.
func (w *Worker) handleBinBroadcast(msg BinBroadcastMsg) {
	w.mu.Lock()
	if msg.Seq <= w.binSeq {
		w.mu.Unlock()
		w.send(MasterName, BinAckMsg{Worker: w.id, Seq: msg.Seq})
		return
	}
	w.binSeq = msg.Seq
	bins := make(map[int]split.Bins, len(msg.Bins))
	maxBins := 0
	for _, b := range msg.Bins {
		bins[b.Col] = b
		if b.NumBins > maxBins {
			maxBins = b.NumBins
		}
	}
	w.bins = bins
	w.binned = map[int]*split.BinnedColumn{}
	classes := 0
	if w.y != nil && w.y.Kind == dataset.Categorical {
		classes = w.schema.NumClasses
	}
	w.mu.Unlock()
	w.histCache.reset()
	if maxBins > 0 {
		w.histCache.resize(histCacheCap(maxBins, classes))
	}

	w.enqueue(func() {
		w.mu.Lock()
		cols := make([]int, 0, len(w.cols))
		for c := range w.cols {
			cols = append(cols, c)
		}
		w.mu.Unlock()
		sort.Ints(cols)
		for _, c := range cols {
			w.mu.Lock()
			col := w.cols[c]
			b, ok := w.bins[c]
			stale := w.binSeq != msg.Seq
			w.mu.Unlock()
			if stale {
				return // a newer broadcast superseded this one mid-bin
			}
			if col == nil || !ok {
				continue
			}
			bc := split.BinColumn(col, b)
			w.mu.Lock()
			if w.binSeq == msg.Seq {
				w.binned[c] = bc
			}
			w.mu.Unlock()
		}
		w.send(MasterName, BinAckMsg{Worker: w.id, Seq: msg.Seq})
	})
}

// binnedFor returns the cached binned image of one column, computing and
// caching it on miss — the path for columns re-replicated onto this worker
// after the broadcast pre-binned the rest.
func (w *Worker) binnedFor(colIdx int, col *dataset.Column, b split.Bins, seq int64) *split.BinnedColumn {
	w.mu.Lock()
	if w.binSeq == seq {
		if bc := w.binned[colIdx]; bc != nil {
			w.mu.Unlock()
			return bc
		}
	}
	w.mu.Unlock()
	bc := split.BinColumn(col, b)
	w.mu.Lock()
	if w.binSeq == seq && w.binned != nil {
		w.binned[colIdx] = bc
	}
	w.mu.Unlock()
	return bc
}

// computeColumnTaskHist is the hist-mode analogue of computeColumnTask: one
// pooled histogram per assigned column (subtraction-derived when the cached
// parent and sibling allow it), scored locally, with the best candidate
// answered in a ColumnResultMsg. Under column partitioning this worker holds
// every row of its columns, so that candidate is already exact with respect
// to the bins and the master decides the split exactly as in exact mode.
func (w *Worker) computeColumnTaskHist(msg ColumnPlanMsg, rows []int32) {
	w.mu.Lock()
	y := w.y
	seq := w.binSeq
	bins := w.bins
	localCols := make([]*dataset.Column, len(msg.Cols))
	for i, c := range msg.Cols {
		localCols[i] = w.cols[c]
	}
	w.mu.Unlock()
	if bins == nil {
		w.fail(msg.Task, "hist plan before bin broadcast")
		return
	}
	classes := 0
	if y.Kind == dataset.Categorical {
		classes = msg.NumClasses
	}

	scratch := split.GetScratchObserved(w.sc)
	defer split.PutScratch(scratch)
	best := split.Candidate{}
	for i, colIdx := range msg.Cols {
		col := localCols[i]
		if col == nil {
			w.fail(msg.Task, "assigned column %d not held", colIdx)
			return
		}
		b, ok := bins[colIdx]
		if !ok {
			w.fail(msg.Task, "no bins for column %d", colIdx)
			return
		}
		bc := w.binnedFor(colIdx, col, b, seq)
		h := w.nodeHist(msg, colIdx, bc, y, rows, b.NumBins, classes)
		cand := split.BestFromHist(b, h, msg.Measure, msg.MaxExh, scratch)
		// The cache takes ownership of h for the sibling's subtraction.
		w.histCache.put(msg.Task, msg.Parent, colIdx, h)
		if cand.Better(best) {
			best = cand
		}
	}
	stats := StatsOf(y, rows, msg.NumClasses)
	w.send(MasterName, ColumnResultMsg{Task: msg.Task, Attempt: msg.Attempt, Worker: w.id, Best: best, Stats: stats})
}

// nodeHist produces one column's histogram for the task's rows: derived by
// parent − sibling subtraction when both cached histograms are available, or
// accumulated by a direct row scan. Subtraction is classification-only —
// class counts are integers, exact in float64, so the difference is bitwise
// identical to a direct fill; regression moments would subtract with
// different rounding than they accumulate, breaking run-to-run determinism.
func (w *Worker) nodeHist(msg ColumnPlanMsg, colIdx int, bc *split.BinnedColumn, y *dataset.Column, rows []int32, numBins, classes int) *split.Hist {
	if classes > 0 && !msg.Parent.IsRoot() {
		parent := w.histCache.get(histKey{id: msg.Parent.Task, side: selfSide, col: colIdx})
		sibling := w.histCache.get(histKey{id: msg.Parent.Task, side: 1 - msg.Parent.Side, col: colIdx})
		if parent != nil && sibling != nil &&
			parent.NumBins == numBins && parent.Classes == classes &&
			sibling.NumBins == numBins && sibling.Classes == classes {
			h := split.GetHist(numBins, classes)
			h.Sub(parent, sibling)
			w.sc.HistSubtracted()
			return h
		}
	}
	h := split.GetHist(numBins, classes)
	h.Fill(bc, y, rows)
	w.sc.HistFilled()
	return h
}
