package main

import (
	"strings"
	"time"

	"treeserver/internal/cluster"
	"treeserver/internal/core"
	"treeserver/internal/dataset"
	"treeserver/internal/impurity"
	"treeserver/internal/obs"
	"treeserver/internal/split"
)

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// msgType strips the package qualifier from an observed wire type name.
func msgType(t string) string {
	t = strings.TrimPrefix(t, "*")
	if i := strings.LastIndexByte(t, '.'); i >= 0 {
		return t[i+1:]
	}
	return t
}

// reportClusterLayers derives the cluster, task, loadbal, transport and
// split-counter metrics from the observer snapshots around the traced jobs,
// as per-job averages where the unit says so.
func reportClusterLayers(r *result, st jobStats) {
	a, b := st.before, st.now
	jobs := float64(st.tracedJobs)
	n := st.tracedJobs
	perJob := func(name string, v int64) { r.set(name, float64(v)/jobs, n) }

	sp := b.Split
	sa := a.Split
	perJob("split.fast_path", sp.FastPath-sa.FastPath)
	perJob("split.fallback", sp.Fallback-sa.Fallback)
	perJob("split.categorical", sp.Categorical-sa.Categorical)
	perJob("split.hist_fills", sp.HistFills-sa.HistFills)
	perJob("split.hist_subtractions", sp.HistSubtractions-sa.HistSubtractions)
	hits, misses := sp.ScratchHits-sa.ScratchHits, sp.ScratchMisses-sa.ScratchMisses
	r.set("split.scratch_hit_ratio", ratio(float64(hits), float64(hits+misses)), n)

	m, ma := b.Master, a.Master
	planned := m.TasksPlanned - ma.TasksPlanned
	perJob("cluster.tasks_planned", planned)
	r.set("cluster.useful_task_ratio", ratio(float64(m.TasksCompleted-ma.TasksCompleted), float64(planned)), n)
	r.set("cluster.plan_to_decide_ms", ratio(float64(m.PlanToDecideNs-ma.PlanToDecideNs)/1e6, float64(m.PlanToDecideSpans-ma.PlanToDecideSpans)), int(m.PlanToDecideSpans-ma.PlanToDecideSpans))
	r.set("cluster.confirm_to_split_ms", ratio(float64(m.ConfirmToSplitNs-ma.ConfirmToSplitNs)/1e6, float64(m.ConfirmToSplitSpans-ma.ConfirmToSplitSpans)), int(m.ConfirmToSplitSpans-ma.ConfirmToSplitSpans))
	perJob("task.pushes_bfs", m.PushesBFS-ma.PushesBFS)
	perJob("task.pushes_dfs", m.PushesDFS-ma.PushesDFS)
	r.set("task.deque_high_water", float64(m.DequeHighWater), n)
	r.set("task.pool_high_water", float64(m.PoolHighWater), n)

	before := map[int]obs.WorkerSnapshot{}
	for _, w := range a.Workers {
		before[w.ID] = w
	}
	var comp, send, recv, serves, serveNs, rsHits, rsMisses int64
	var maxComp int64
	for _, w := range b.Workers {
		p := before[w.ID]
		c := w.CompNs - p.CompNs
		comp += c
		if c > maxComp {
			maxComp = c
		}
		send += w.SendNs - p.SendNs
		recv += w.RecvNs - p.RecvNs
		serves += w.RowServes - p.RowServes
		serveNs += w.RowServeNs - p.RowServeNs
		rsHits += w.RowSetHits - p.RowSetHits
		rsMisses += w.RowSetMisses - p.RowSetMisses
	}
	r.set("cluster.worker_comp_s", float64(comp)/1e9/jobs, n)
	r.set("cluster.worker_send_s", float64(send)/1e9/jobs, n)
	r.set("cluster.worker_recv_s", float64(recv)/1e9/jobs, n)
	perJob("cluster.row_serves", serves)
	r.set("cluster.row_serve_ms", ratio(float64(serveNs)/1e6, float64(serves)), int(serves))
	r.set("cluster.rowset_hit_ratio", ratio(float64(rsHits), float64(rsHits+rsMisses)), n)
	r.set("cluster.comper_busy_share", ratio(float64(comp), float64(st.tracedWall.Nanoseconds())*clusterWorkers*clusterCompers), n)
	r.set("loadbal.comp_imbalance", ratio(float64(maxComp), float64(comp)/float64(len(b.Workers))), len(b.Workers))

	count := map[string]int64{}
	bytes := map[string]int64{}
	for _, mc := range b.Messages {
		count[msgType(mc.Type)] += mc.Count
		bytes[msgType(mc.Type)] += mc.Bytes
	}
	for _, mc := range a.Messages {
		count[msgType(mc.Type)] -= mc.Count
		bytes[msgType(mc.Type)] -= mc.Bytes
	}
	var msgs, total int64
	for t := range count {
		msgs += count[t]
		total += bytes[t]
	}
	perJob("transport.msgs", msgs)
	perJob("transport.bytes", total)
	perJob("transport.coldata_bytes", bytes["ColDataRequestMsg"]+bytes["ColDataResponseMsg"])
	perJob("transport.rows_bytes", bytes["RowsRequestMsg"]+bytes["RowsResponseMsg"])
	perJob("transport.settarget_bytes", bytes["SetTargetMsg"])
	perJob("transport.vote_fetch_msgs", count["TopKVoteMsg"]+count["HistogramRequestMsg"]+count["HistogramMsg"])
	var retries int64
	for _, l := range b.Links {
		retries += l.Retries
	}
	for _, l := range a.Links {
		retries -= l.Retries
	}
	perJob("transport.retries", retries)

	r.set("obs.trace_overhead_ratio", ratio(median(st.job), median(st.plainJob)), len(st.job)+len(st.plainJob))
}

// reportTableLayers times the split, dataset and core calls directly, on
// copies of the workload's table that no job ever sees: the sort indexes
// are built here from cold, as every job builds them.
func reportTableLayers(tr *tracer, r *result, table func() *dataset.Table, params core.Params, bag cluster.BagSpec) {
	tbl := table()
	rows := tbl.NumRows()
	features := tbl.FeatureIndexes()

	var sortTime time.Duration
	for _, c := range features {
		col := tbl.Cols[c]
		if col.Kind != dataset.Numeric {
			continue
		}
		t0 := time.Now()
		col.SortIndex()
		d := time.Since(t0)
		sortTime += d
		tr.add("dataset.Column.SortIndex", 0, 0, t0, t0.Add(d))
	}
	r.set("dataset.sortindex_s", sortTime.Seconds(), len(features))

	if bag.NumRows == 0 {
		bag.NumRows = rows
	}
	bagRows := bag.Rows()
	var gathered []float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		for _, c := range features {
			tbl.Cols[c].Gather(bagRows)
		}
		d := time.Since(t0)
		tr.add("dataset.Column.Gather", 0, 0, t0, t0.Add(d))
		gathered = append(gathered, float64(d.Nanoseconds())/float64(len(features)*len(bagRows)))
	}
	r.set("dataset.gather_ns_per_row", median(gathered), len(gathered))

	measure := impurity.Gini
	if tbl.Task() == dataset.Regression {
		measure = impurity.Variance
	}
	all := dataset.AllRows(rows)
	req := split.Request{
		Y: tbl.Y(), Rows: all, Measure: measure, NumClasses: tbl.NumClasses(),
		RowSet: dataset.RowSetOf(all, rows), Scratch: new(split.Scratch),
	}
	var perRow []float64
	for rep := 0; rep < 4; rep++ {
		var d time.Duration
		for _, c := range features {
			req.Col, req.ColIdx = tbl.Cols[c], c
			t0 := time.Now()
			split.FindBest(req)
			one := time.Since(t0)
			d += one
			tr.add("split.FindBest", 0, 0, t0, t0.Add(one))
		}
		if rep > 0 { // the first pass grows the scratch buffers
			perRow = append(perRow, float64(d.Nanoseconds())/float64(len(features)*rows))
		}
	}
	r.set("split.findbest_ns_per_row", median(perRow), len(perRow))

	cold := table()
	t0 := time.Now()
	core.TrainLocal(cold, bag.Rows(), params)
	d := time.Since(t0)
	tr.add("core.TrainLocal", 0, 0, t0, t0.Add(d))
	r.set("core.serial_tree_s", d.Seconds(), 1)
}

// naLayers reports every per-layer metric of the given modules as not
// exercised by the workload.
func naLayers(r *result, why string, modules ...string) {
	for _, d := range perLayer {
		for _, m := range modules {
			if strings.HasPrefix(d.name, m) {
				r.na(d.name, why)
			}
		}
	}
}
