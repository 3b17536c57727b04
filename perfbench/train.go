package main

import (
	"fmt"
	"time"

	"treeserver/internal/cluster"
	"treeserver/internal/dataset"
	"treeserver/internal/obs"
)

// Cluster shape shared by every workload: 4 workers × 1 comper, k = 2.
const (
	clusterWorkers  = 4
	clusterCompers  = 1
	clusterReplicas = 2
)

func clusterOptions(observer *obs.Registry, extra ...cluster.Option) []cluster.Option {
	opts := []cluster.Option{
		cluster.WithWorkers(clusterWorkers),
		cluster.WithCompers(clusterCompers),
		cluster.WithReplicas(clusterReplicas),
	}
	if observer != nil {
		opts = append(opts, cluster.WithObserver(observer))
	}
	return append(opts, extra...)
}

// jobEnv is what one timed job runs against: a freshly generated table and a
// freshly started cluster, as a new tstrain process would have.
type jobEnv struct {
	tbl     *dataset.Table
	cluster *cluster.Cluster
}

// jobSpec describes a training workload's job loop.
type jobSpec struct {
	minJobs int
	// setup generates the table and starts the cluster; observer is nil
	// unless the job is traced.
	setup func(observer *obs.Registry) (*jobEnv, error)
	// job runs one training job on env; id groups the job's spans (0 when
	// untraced). check verifies its output after timing; an error from
	// either counts the job as failed.
	job   func(env *jobEnv, id int64) (any, error)
	check func(out any) error
}

// jobStats are the per-job samples of a job loop.
type jobStats struct {
	setup, job, cpu, heap []float64 // s, s, ms, MB
	// Traced runs only: untraced job times, traced job wall time in total,
	// and the observer snapshots around the traced jobs.
	plainJob    []float64
	tracedWall  time.Duration
	tracedJobs  int
	before, now obs.Snapshot
}

// runJobs runs one untimed warm-up job, then timed jobs until the measured
// phase has lasted cfg.seconds and at least spec.minJobs have run. Each job
// pays its own set-up, timed apart from the job. In a traced run every
// other job is untraced, so the run also yields its tracing overhead.
func runJobs(cfg runConfig, r *result, spec jobSpec) (jobStats, error) {
	var st jobStats
	var observer *obs.Registry
	if cfg.trace {
		observer = obs.NewRegistry()
		st.before = observer.Snapshot()
	}
	one := func(id int64, traced, timed bool) error {
		var o *obs.Registry
		if traced {
			o = observer
		}
		settle()
		t0 := time.Now()
		env, err := spec.setup(o)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		defer env.cluster.Close()
		setupTime := time.Since(t0)
		heap := startHeapSampler(5 * time.Millisecond)
		var root int64
		if traced {
			root = cfg.tracer.begin("cluster.Train job", 0, id)
		}
		c1, t1 := cpuTime(), time.Now()
		out, jobErr := spec.job(env, root)
		jobTime, jobCPU := time.Since(t1), cpuTime()-c1
		cfg.tracer.end(root)
		heap.close()
		peak := heap.reset()
		if jobErr == nil {
			jobErr = spec.check(out)
		}
		r.op(jobErr)
		if !timed {
			return nil
		}
		switch {
		case !cfg.trace:
			st.setup = append(st.setup, setupTime.Seconds())
			st.job = append(st.job, jobTime.Seconds())
			st.cpu = append(st.cpu, ms(jobCPU))
			st.heap = append(st.heap, peak)
		case traced:
			st.tracedWall += jobTime
			st.tracedJobs++
			st.job = append(st.job, jobTime.Seconds())
		default:
			st.plainJob = append(st.plainJob, jobTime.Seconds())
		}
		return nil
	}
	if err := one(0, false, false); err != nil {
		return st, fmt.Errorf("warm-up job: %w", err)
	}
	start := time.Now()
	for id := int64(1); time.Since(start) < cfg.seconds || id <= int64(spec.minJobs); id++ {
		if err := one(id, cfg.trace && id%2 == 1, true); err != nil {
			return st, err
		}
	}
	if cfg.trace {
		st.now = observer.Snapshot()
	}
	return st, nil
}

// reportJobs sets the end-to-end metrics of a job loop.
func reportJobs(r *result, st jobStats) {
	r.set("setup_s", median(st.setup), len(st.setup))
	r.set("latency_p50_ms", 1000*median(st.job), len(st.job))
	r.set("cpu_ms_per_op", median(st.cpu), len(st.cpu))
	r.set("peak_heap_mb", median(st.heap), len(st.heap))
	r.Details["setup_s"], r.Details["job_s"], r.Details["job_cpu_ms"], r.Details["peak_heap_mb"] = st.setup, st.job, st.cpu, st.heap
}
