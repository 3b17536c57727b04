package split

import (
	"slices"
	"sync"

	"treeserver/internal/dataset"
	"treeserver/internal/impurity"
	"treeserver/internal/sketch"
)

// This file is the kernel of the distributed histogram training mode
// ("-mode hist"): sketch-proposed bins discretise each numeric column once
// per job, a flat pooled accumulator fills per-(node, column, bin) statistics
// in one slice, and histogram subtraction derives the larger sibling of a
// split from the cached parent instead of re-scanning its rows. The legacy
// Histogram type above stays as the PLANET/MLlib baseline; the cluster's
// hist mode uses only the types below.

// missingBin marks a missing cell in BinnedColumn.Idx. Bin indexes are
// uint16, capping usable bins per column at 65535.
const missingBin = ^uint16(0)

// BinsFromCuts builds numeric Bins from sketch-proposed cut values. Each cut
// is an actual data value — the inclusive upper bound of its bin — and
// values is the full ascending summary the cuts were drawn from. The stored
// threshold is placed at midpoint(cut, next greater summary value), so that
// when every distinct value receives its own bin the thresholds agree
// bit-for-bit with the exact sweep's midpoints.
func BinsFromCuts(colIdx int, cuts, values []float64) Bins {
	b := Bins{Col: colIdx, Kind: dataset.Numeric}
	thresholds := make([]float64, 0, len(cuts))
	for _, c := range cuts {
		j, _ := slices.BinarySearch(values, c)
		for j < len(values) && values[j] <= c {
			j++
		}
		if j >= len(values) {
			continue // a cut at the maximum leaves nothing on the right
		}
		t := midpoint(c, values[j])
		if len(thresholds) == 0 || t > thresholds[len(thresholds)-1] {
			thresholds = append(thresholds, t)
		}
	}
	b.Thresholds = thresholds
	b.NumBins = len(thresholds) + 1
	return b
}

// SketchCapacity is the quantile-summary capacity used when proposing
// maxBins bins: 4× oversampling so the quantile picks stay sharp, floored at
// 64. Workers (proposal) and master (merge) must agree on it, or replica
// merges would compress differently on each side of the wire.
func SketchCapacity(maxBins int) int {
	if s := 4 * maxBins; s > 64 {
		return s
	}
	return 64
}

// ProposeBins derives one column's Bins directly from its values — the
// serial analogue of the distributed bin-proposal round, used by local
// hist-mode training where no sketches cross a wire.
func ProposeBins(colIdx int, col *dataset.Column, maxBins int) Bins {
	if col.Kind == dataset.Categorical {
		return Bins{Col: colIdx, Kind: dataset.Categorical, NumBins: col.NumLevels()}
	}
	sk := sketch.New(SketchCapacity(maxBins))
	vals := make([]float64, 0, col.Len())
	for r := 0; r < col.Len(); r++ {
		if !col.IsMissing(r) {
			vals = append(vals, col.Floats[r])
		}
	}
	sk.AddBulk(vals)
	return BinsFromSketch(colIdx, sk, maxBins)
}

// BinsFromSketch proposes bins for one numeric column from a merged quantile
// summary. When the summary retains no more than maxBins distinct values,
// every value (bar the maximum) becomes a cut — the saturated case where
// hist-mode candidates match the exact sweep; otherwise the maxBins-quantile
// proposals are used.
func BinsFromSketch(colIdx int, sk *sketch.Sketch, maxBins int) Bins {
	values := sk.Values()
	if len(values) <= maxBins {
		var cuts []float64
		if len(values) > 0 {
			cuts = values[:len(values)-1]
		}
		return BinsFromCuts(colIdx, cuts, values)
	}
	return BinsFromCuts(colIdx, sk.Quantiles(maxBins), values)
}

// BinnedColumn caches the per-row bin index of one column under immutable
// Bins. It is computed once per (column, bin broadcast) and reused by every
// node's histogram fill, so the per-node kernel is one uint16 load per row.
type BinnedColumn struct {
	Bins Bins
	Idx  []uint16
}

// BinColumn precomputes row-to-bin indexes. Missing cells get the missingBin
// sentinel so fills can count them without consulting the column again.
func BinColumn(col *dataset.Column, bins Bins) *BinnedColumn {
	if bins.NumBins >= int(missingBin) {
		panic("split: bins exceed uint16 index range")
	}
	idx := make([]uint16, col.Len())
	for r := range idx {
		switch {
		case col.IsMissing(r):
			idx[r] = missingBin
		case bins.Kind == dataset.Categorical:
			idx[r] = uint16(col.Cats[r])
		default:
			i, _ := slices.BinarySearch(bins.Thresholds, col.Floats[r])
			idx[r] = uint16(i)
		}
	}
	return &BinnedColumn{Bins: bins, Idx: idx}
}

// Hist is the flat per-(node, column) histogram. Classification uses stride
// Classes — integer-valued class counts per bin, exact in float64 up to 2^53
// rows, which is what makes Sub bitwise identical to a direct fill.
// Regression uses stride 3: (count, sum, sumsq) per bin. All fields are
// exported so histograms cross the gob wire unmodified.
type Hist struct {
	NumBins int
	Classes int // 0 selects regression moments
	Missing int // rows whose cell was missing, excluded from W
	W       []float64
}

func (h *Hist) stride() int {
	if h.Classes > 0 {
		return h.Classes
	}
	return 3
}

// Reset resizes and zeroes the histogram for numBins bins.
func (h *Hist) Reset(numBins, classes int) {
	h.NumBins, h.Classes, h.Missing = numBins, classes, 0
	need := numBins * h.stride()
	if cap(h.W) < need {
		h.W = make([]float64, need)
		return
	}
	h.W = h.W[:need]
	for i := range h.W {
		h.W[i] = 0
	}
}

// histPool has no New hook so a checkout can tell reuse from allocation.
var histPool sync.Pool

// GetHist checks a zeroed histogram out of the package pool.
func GetHist(numBins, classes int) *Hist {
	h, _ := histPool.Get().(*Hist)
	if h == nil {
		h = new(Hist)
	}
	h.Reset(numBins, classes)
	return h
}

// PutHist returns a histogram to the pool. The caller must not retain it.
func PutHist(h *Hist) {
	if h != nil {
		histPool.Put(h)
	}
}

// Fill accumulates rows into the histogram in row order: class counts for
// classification, (count, sum, sumsq) for regression. Row order matters for
// regression determinism — every fill of the same rows produces bitwise
// identical sums.
func (h *Hist) Fill(bc *BinnedColumn, y *dataset.Column, rows []int32) {
	if h.Classes > 0 {
		k := h.Classes
		for _, r := range rows {
			b := bc.Idx[r]
			if b == missingBin {
				h.Missing++
				continue
			}
			h.W[int(b)*k+int(y.Cats[r])]++
		}
		return
	}
	for _, r := range rows {
		b := bc.Idx[r]
		if b == missingBin {
			h.Missing++
			continue
		}
		f := y.Floats[r]
		i := int(b) * 3
		h.W[i]++
		h.W[i+1] += f
		h.W[i+2] += f * f
	}
}

// Sub sets h = parent - sibling elementwise. Exact for classification's
// integer counts; hist mode applies subtraction only there, so a subtracted
// histogram is bitwise identical to a directly filled one and cache timing
// can never change the chosen split.
func (h *Hist) Sub(parent, sibling *Hist) {
	h.Reset(parent.NumBins, parent.Classes)
	for i := range h.W {
		h.W[i] = parent.W[i] - sibling.W[i]
	}
	h.Missing = parent.Missing - sibling.Missing
}

// Total returns the number of non-missing observations aggregated.
func (h *Hist) Total() int {
	n := 0
	if h.Classes > 0 {
		for _, w := range h.W {
			n += int(w)
		}
		return n
	}
	for b := 0; b < h.NumBins; b++ {
		n += int(h.W[b*3])
	}
	return n
}

// BestFromHist scans a histogram for the best split under the bins.
// Numeric columns sweep the stored thresholds with incremental accumulators;
// categorical columns reconstruct exact per-level statistics and reuse the
// exact kernels, so categorical hist candidates match FindBest bit-for-bit
// whenever the histogram covers the same rows. Missing rows are routed with
// the larger child exactly like FindBest. maxExhaustive <= 0 selects
// DefaultMaxExhaustiveLevels; a nil scratch allocates privately.
func BestFromHist(bins Bins, h *Hist, measure impurity.Measure, maxExhaustive int, s *Scratch) Candidate {
	if s == nil {
		s = new(Scratch)
	}
	if maxExhaustive <= 0 {
		maxExhaustive = DefaultMaxExhaustiveLevels
	}
	if h.Total() < 2 {
		return Candidate{}
	}
	var cand Candidate
	switch {
	case bins.Kind == dataset.Numeric && h.Classes > 0:
		cand = histNumericClassification(bins, h, measure, s)
	case bins.Kind == dataset.Numeric:
		cand = histNumericRegression(bins, h)
	case h.Classes > 0:
		cand = histCategoricalClassification(bins, h, measure, maxExhaustive, s)
	default:
		cand = histCategoricalRegression(bins, h, s)
	}
	return routeMissing(cand, h.Missing)
}

// histNumericClassification sweeps bin boundaries with class counters, the
// binned analogue of sweepNumeric's classification branch. Empty bins repeat
// the previous partition and are skipped, mirroring the exact sweep's
// equal-value skip.
func histNumericClassification(bins Bins, h *Hist, m impurity.Measure, s *Scratch) Candidate {
	k := h.Classes
	left, right := s.classCounters(k)
	for i, w := range h.W {
		if n := int(w); n > 0 {
			right.AddN(int32(i%k), n)
		}
	}
	best := Candidate{}
	for b := 0; b < h.NumBins-1; b++ {
		moved := 0
		for class := 0; class < k; class++ {
			if n := int(h.W[b*k+class]); n > 0 {
				left.AddN(int32(class), n)
				right.AddN(int32(class), -n)
				moved += n
			}
		}
		if moved == 0 || left.N == 0 || right.N == 0 {
			continue
		}
		imp := impurity.WeightedSplit(left.N, left.Impurity(m), right.N, right.Impurity(m))
		cand := Candidate{
			Cond:     NewNumericCondition(bins.Col, bins.Thresholds[b], false),
			Impurity: imp, LeftN: left.N, RightN: right.N, Valid: true,
		}
		if cand.Better(best) {
			best = cand
		}
	}
	return best
}

// histNumericRegression sweeps bin boundaries with moment accumulators.
func histNumericRegression(bins Bins, h *Hist) Candidate {
	var left, right impurity.MomentAccumulator
	for b := 0; b < h.NumBins; b++ {
		i := b * 3
		right.N += int(h.W[i])
		right.Sum += h.W[i+1]
		right.SumSq += h.W[i+2]
	}
	best := Candidate{}
	for b := 0; b < h.NumBins-1; b++ {
		i := b * 3
		n := int(h.W[i])
		if n > 0 {
			left.N += n
			left.Sum += h.W[i+1]
			left.SumSq += h.W[i+2]
			right.N -= n
			right.Sum -= h.W[i+1]
			right.SumSq -= h.W[i+2]
		}
		if n == 0 || left.N == 0 || right.N == 0 {
			continue
		}
		imp := impurity.WeightedSplit(left.N, left.Impurity(), right.N, right.Impurity())
		cand := Candidate{
			Cond:     NewNumericCondition(bins.Col, bins.Thresholds[b], false),
			Impurity: imp, LeftN: left.N, RightN: right.N, Valid: true,
		}
		if cand.Better(best) {
			best = cand
		}
	}
	return best
}

// histCategoricalRegression rebuilds per-level moments from the histogram
// and feeds the exact Breiman prefix scan. The per-level sums were
// accumulated in row order, so the moments equal the exact kernel's.
func histCategoricalRegression(bins Bins, h *Hist, s *Scratch) Candidate {
	moments := s.momentBuf(h.NumBins)
	for b := 0; b < h.NumBins; b++ {
		i := b * 3
		moments[b] = impurity.MomentAccumulator{N: int(h.W[i]), Sum: h.W[i+1], SumSq: h.W[i+2]}
	}
	return bestCategoricalRegressionFromMoments(bins.Col, moments, s)
}

// histCategoricalClassification rebuilds the level x class count matrix from
// the histogram and feeds the exact subset search.
func histCategoricalClassification(bins Bins, h *Hist, m impurity.Measure, maxExh int, s *Scratch) Candidate {
	k := h.Classes
	counts, _ := s.countMatrix(h.NumBins, k)
	presentCodes := s.codesBuf(h.NumBins)
	for code := 0; code < h.NumBins; code++ {
		present := false
		for class := 0; class < k; class++ {
			if n := int(h.W[code*k+class]); n > 0 {
				counts[code][class] = n
				present = true
			}
		}
		if present {
			presentCodes = append(presentCodes, int32(code))
		}
	}
	s.codes = presentCodes
	if len(presentCodes) < 2 {
		return Candidate{}
	}
	return bestCategoricalClassificationFromCounts(bins.Col, counts, presentCodes, k, m, maxExh, s)
}
