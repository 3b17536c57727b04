// Command treeserver runs the TreeServer system over real TCP: one master
// process plus N worker processes, each loading its column partition from a
// shared DFS store directory (produced by tsput). A single-process -role
// local mode trains on an in-process cluster for quick experiments.
//
// Master:
//
//	treeserver -role master -listen :7070 \
//	    -workers host1:7071,host2:7072 \
//	    -store /mnt/dfs -table mytable \
//	    -job rf -trees 20 -dmax 10 -out forest.tsmodel
//
// Worker i (i in 0..N-1, same order as the master's -workers list):
//
//	treeserver -role worker -id 0 -listen :7071 \
//	    -master host0:7070 -workers host1:7071,host2:7072 \
//	    -store /mnt/dfs -table mytable -compers 10
//
// Hot standby (add -standby-addr hostS:7069 to the master's flags):
//
//	treeserver -role standby -listen hostS:7069 -promote-listen hostS:7070 \
//	    -master host0:7070 -workers host1:7071,host2:7072 \
//	    -store /mnt/dfs -table mytable -lease-ttl 2s
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"treeserver/internal/cluster"
	"treeserver/internal/core"
	"treeserver/internal/dataset"
	"treeserver/internal/dfs"
	"treeserver/internal/forest"
	"treeserver/internal/loadbal"
	"treeserver/internal/model"
	"treeserver/internal/obs"
	"treeserver/internal/task"
	"treeserver/internal/transport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("treeserver: ")
	var (
		role       = flag.String("role", "local", "master | worker | local")
		listen     = flag.String("listen", "127.0.0.1:0", "listen address")
		masterAddr = flag.String("master", "", "master address (worker role)")
		workerList = flag.String("workers", "", "comma-separated worker addresses, in id order")
		id         = flag.Int("id", 0, "worker id (worker role)")
		storeDir   = flag.String("store", "", "DFS store directory")
		tableName  = flag.String("table", "table", "table name within the store")
		job        = flag.String("job", "dt", "dt (decision tree) | rf (random forest) | xt (extra-trees forest)")
		trees      = flag.Int("trees", 20, "trees for rf/xt jobs")
		dmax       = flag.Int("dmax", 10, "maximum tree depth")
		minLeaf    = flag.Int("tau-leaf", 1, "tau_leaf: minimum rows before a node becomes a leaf")
		tauD       = flag.Int("tau-d", 10000, "tau_D: subtree-task threshold")
		tauDFS     = flag.Int("tau-dfs", 80000, "tau_dfs: depth-first threshold")
		npool      = flag.Int("npool", 200, "n_pool: trees under construction at once")
		replicas   = flag.Int("replicas", 2, "column replication factor k")
		compers    = flag.Int("compers", 10, "computing threads per worker (worker/local role)")
		workersN   = flag.Int("cluster-workers", 4, "workers for -role local")
		out        = flag.String("out", "", "write the trained model to this file (tsserve-compatible)")
		modelName  = flag.String("model-name", "", "registry name stored in the model file (default: the -job name)")
		report     = flag.Bool("report", false, "print the end-of-train telemetry report")
		debugAddr  = flag.String("debug", "", "serve /debug/obs, /debug/vars and /debug/pprof on this address")
		ckptDir    = flag.String("checkpoint-dir", "", "enable durable master checkpointing into this directory (master/local role)")
		ckptEvery  = flag.Duration("checkpoint-every", 0, "periodic snapshot interval between tree boundaries (0 = tree boundaries only)")
		resume     = flag.Bool("resume", false, "recover the interrupted job from -checkpoint-dir instead of starting fresh")
		hedge      = flag.Float64("hedge-factor", 0, "hedge a task attempt outliving this multiple of the fleet latency estimate (0 = off; master/local role)")
		quarantine = flag.Float64("quarantine-threshold", 0, "quarantine workers whose median-normalised health score drops below this, in [0,1) (0 = off; master/local role)")
		mode       = flag.String("mode", "exact", "split finding: exact | hist (sketch-binned histograms; master/local role)")
		maxBins    = flag.Int("max-bins", 0, "hist mode: bins per numeric column (0 = cluster default)")

		standbyAddr = flag.String("standby-addr", "", "stream checkpoints to a hot standby at this address (master role)")
		leaseTTL    = flag.Duration("lease-ttl", 0, "failover lease duration (0 = default; master/standby/local role)")
		advertise   = flag.String("advertise", "", "externally reachable master address, sent to rejoining workers (master role)")
		standbyOn   = flag.Bool("standby", false, "attach an in-process hot standby (local role)")
		promoteAddr = flag.String("promote-listen", "", "host:port the promoted master listens on after failover; must be reachable by workers (standby role)")

		joinN    = flag.Int("join", 0, "live-join this many extra workers through the membership handshake after the cluster starts (local role)")
		drainW   = flag.Int("drain", -1, "gracefully drain this worker index (cordon, hand off columns, retire) before training (local role)")
		fleetCap = flag.Int("fleet-cap", 0, "reject live joins that would grow the fleet past this size (0 = unbounded; local role)")
	)
	flag.Parse()
	savedModelName = *modelName
	if *resume && *ckptDir == "" {
		log.Fatal("-resume requires -checkpoint-dir")
	}
	splitMode, err := cluster.ParseSplitMode(*mode)
	if err != nil {
		log.Fatal(err)
	}

	ck := ckpt{dir: *ckptDir, every: *ckptEvery, resume: *resume}
	gf := gray{hedge: *hedge, quarantine: *quarantine}
	hm := histMode{mode: splitMode, maxBins: *maxBins}
	hc := ha{standbyAddr: *standbyAddr, leaseTTL: *leaseTTL, advertise: *advertise,
		standby: *standbyOn, promoteListen: *promoteAddr}
	el := elastic{join: *joinN, drain: *drainW, fleetCap: *fleetCap}
	reg := newTelemetry(*report, *debugAddr)
	switch *role {
	case "local":
		runLocal(*storeDir, *tableName, *job, *trees, *dmax, *minLeaf, *tauD, *tauDFS, *npool, *replicas, *compers, *workersN, *out, reg, *report, ck, gf, hm, hc, el)
	case "worker":
		runWorker(*listen, *masterAddr, *workerList, *id, *storeDir, *tableName, *replicas, *compers, reg)
	case "master":
		runMaster(*listen, *workerList, *storeDir, *tableName, *job, *trees, *dmax, *minLeaf, *tauD, *tauDFS, *npool, *replicas, *out, reg, *report, ck, gf, hm, hc)
	case "standby":
		runStandby(*listen, *masterAddr, *workerList, *storeDir, *tableName, *job, *tauD, *tauDFS, *npool, *replicas, *out, reg, *report, ck, gf, hm, hc)
	default:
		log.Fatalf("unknown role %q", *role)
	}
}

// elastic carries the fleet-membership flags to the local role runner: how
// many workers to live-join, which worker to gracefully drain, and the
// admission cap on fleet growth.
type elastic struct {
	join     int
	drain    int
	fleetCap int
}

// applyTo runs the configured membership transitions against a started
// cluster: join the extra workers through the live handshake, then drain
// the chosen worker. Both go through exactly the protocol a mid-job
// transition uses.
func (e elastic) applyTo(c *cluster.Cluster) {
	for i := 0; i < e.join; i++ {
		w, err := c.Join()
		if err != nil {
			log.Fatalf("live join: %v", err)
		}
		fmt.Printf("worker %d joined the fleet live\n", w.ID())
	}
	if e.drain >= 0 {
		if err := c.Drain(e.drain); err != nil {
			log.Fatalf("draining worker %d: %v", e.drain, err)
		}
		fmt.Printf("worker %d drained gracefully\n", e.drain)
	}
}

// ha carries the hot-standby / failover flags to the role runners.
type ha struct {
	standbyAddr   string
	leaseTTL      time.Duration
	advertise     string
	standby       bool
	promoteListen string
}

// histMode carries the approximate-training flags to the role runners.
// Workers need no flags: the bin protocol configures them over the wire.
type histMode struct {
	mode    cluster.SplitMode
	maxBins int
}

// ckpt carries the checkpoint/resume flags to the role runners.
type ckpt struct {
	dir    string
	every  time.Duration
	resume bool
}

// gray carries the gray-failure tolerance flags to the role runners.
type gray struct {
	hedge      float64
	quarantine float64
}

// newTelemetry builds the optional live registry: nil unless the user asked
// for the report or the debug endpoints, so the default run stays on the
// telemetry-disabled fast path.
func newTelemetry(report bool, debugAddr string) *obs.Registry {
	if !report && debugAddr == "" {
		return nil
	}
	reg := obs.NewRegistry()
	reg.PublishExpvar()
	if debugAddr != "" {
		dbg := &http.Server{
			Addr:              debugAddr,
			Handler:           reg.Handler(),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			if err := dbg.ListenAndServe(); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}
	return reg
}

func printReport(reg *obs.Registry, report bool) {
	if report && reg != nil {
		fmt.Print(reg.Snapshot().Report())
	}
}

func loadTable(storeDir, name string) (*dataset.Table, dfs.Layout, *dfs.DirStore) {
	if storeDir == "" {
		log.Fatal("-store is required")
	}
	store, err := dfs.NewDirStore(storeDir)
	if err != nil {
		log.Fatal(err)
	}
	layout, err := dfs.ReadLayout(store, name)
	if err != nil {
		log.Fatalf("reading table layout (did you run tsput?): %v", err)
	}
	tbl, err := dfs.LoadTable(store, name)
	if err != nil {
		log.Fatalf("loading table: %v", err)
	}
	return tbl, layout, store
}

func jobSpecs(tbl *dataset.Table, job string, trees, dmax, minLeaf int) []cluster.TreeSpec {
	params := core.Params{MaxDepth: dmax, MinLeaf: minLeaf}
	switch job {
	case "dt":
		return []cluster.TreeSpec{{Params: params}}
	case "rf":
		return forest.Specs(cluster.SchemaOf(tbl), forest.Config{
			Trees: trees, Params: params, ColFrac: 0, Bootstrap: true, Seed: 1,
		})
	case "xt":
		return forest.Specs(cluster.SchemaOf(tbl), forest.Config{
			Trees: trees, Params: params, ExtraTrees: true, Bootstrap: true, Seed: 1,
		})
	default:
		log.Fatalf("unknown job %q (want dt, rf or xt)", job)
		return nil
	}
}

// savedModelName is the registry name written into model files; set from
// -model-name, falling back to the job name.
var savedModelName string

func writeModel(path, job string, trained []*core.Tree, tbl *dataset.Table) {
	if path == "" {
		return
	}
	name := savedModelName
	if name == "" {
		name = job
	}
	f := &forest.Forest{Trees: trained, Task: tbl.Task(), NumClasses: tbl.NumClasses()}
	if err := model.SaveForestFile(path, name, f, model.SchemaOf(tbl)); err != nil {
		log.Fatalf("writing model: %v", err)
	}
	fmt.Printf("model with %d tree(s) written to %s (serve it with tsserve)\n", len(trained), path)
}

func runLocal(storeDir, tableName, job string, trees, dmax, minLeaf, tauD, tauDFS, npool, replicas, compers, workers int, out string, reg *obs.Registry, report bool, ck ckpt, gf gray, hm histMode, hc ha, el elastic) {
	tbl, _, _ := loadTable(storeDir, tableName)
	opts := []cluster.Option{
		cluster.WithWorkers(workers), cluster.WithCompers(compers), cluster.WithReplicas(replicas),
		cluster.WithPolicy(task.Policy{TauD: tauD, TauDFS: tauDFS, NPool: npool}),
		cluster.WithObserver(reg),
		cluster.WithSplitMode(hm.mode),
	}
	if hc.standby {
		opts = append(opts, cluster.WithStandby())
	}
	if hc.leaseTTL > 0 {
		opts = append(opts, cluster.WithLease(hc.leaseTTL))
	}
	if hm.maxBins > 0 {
		opts = append(opts, cluster.WithMaxBins(hm.maxBins))
	}
	if ck.dir != "" {
		opts = append(opts, cluster.WithCheckpoint(ck.dir, ck.every))
	}
	if gf.hedge > 0 {
		opts = append(opts, cluster.WithHedgeFactor(gf.hedge))
	}
	if gf.quarantine > 0 {
		opts = append(opts, cluster.WithQuarantine(gf.quarantine, 0))
	}
	if el.fleetCap > 0 {
		opts = append(opts, cluster.WithFleetCap(el.fleetCap))
	}
	c, err := cluster.NewInProcess(tbl, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	el.applyTo(c)
	start := time.Now()
	var trained []*core.Tree
	if ck.resume {
		trained, err = c.Resume()
	} else {
		trained, err = c.Train(jobSpecs(tbl, job, trees, dmax, minLeaf))
	}
	if err != nil && c.Standby != nil {
		// The primary failed with a hot standby attached: the takeover may
		// still finish the job from the streamed replica.
		select {
		case <-c.Standby.Done():
			trained, err = c.Standby.Result()
		case <-time.After(time.Minute):
		}
	}
	if err != nil {
		log.Fatalf("training: %v", err)
	}
	fmt.Printf("trained %d tree(s) on %d rows in %s\n", len(trained), tbl.NumRows(), time.Since(start).Round(time.Millisecond))
	writeModel(out, job, trained, tbl)
	printReport(reg, report)
}

func parseWorkers(list string) []string {
	if list == "" {
		return nil
	}
	return strings.Split(list, ",")
}

// workerColumns computes worker id's column partition from the shared
// layout: the deterministic round-robin placement both master and workers
// derive independently, so no column assignment messages are needed.
func workerColumns(tbl *dataset.Table, numWorkers, replicas, id int) map[int]*dataset.Column {
	placement := loadbal.RoundRobin(tbl.FeatureIndexes(), numWorkers, replicas)
	cols := map[int]*dataset.Column{}
	for col, owners := range placement.Owners {
		for _, o := range owners {
			if o == id {
				cols[col] = tbl.Cols[col]
			}
		}
	}
	return cols
}

func runWorker(listen, masterAddr, workerList string, id int, storeDir, tableName string, replicas, compers int, reg *obs.Registry) {
	if masterAddr == "" {
		log.Fatal("-master is required for workers")
	}
	addrs := parseWorkers(workerList)
	if id < 0 || id >= len(addrs) {
		log.Fatalf("worker id %d out of range for %d workers", id, len(addrs))
	}
	tbl, _, _ := loadTable(storeDir, tableName)

	peers := map[string]string{cluster.MasterName: masterAddr}
	for i, a := range addrs {
		peers[cluster.WorkerName(i)] = a
	}
	ep, err := transport.ListenTCP(cluster.WorkerName(id), listen, peers)
	if err != nil {
		log.Fatal(err)
	}
	cols := workerColumns(tbl, len(addrs), replicas, id)
	w := cluster.NewWorker(id, reg.Wrap(ep), cluster.SchemaOf(tbl), cols, tbl.Y(), compers, reg)
	w.Start()
	fmt.Printf("worker %d serving %d columns on %s\n", id, len(cols), ep.Addr())
	w.Wait()
	fmt.Printf("worker %d: shutdown\n", id)
}

func runMaster(listen, workerList, storeDir, tableName, job string, trees, dmax, minLeaf, tauD, tauDFS, npool, replicas int, out string, reg *obs.Registry, report bool, ck ckpt, gf gray, hm histMode, hc ha) {
	addrs := parseWorkers(workerList)
	if len(addrs) == 0 {
		log.Fatal("-workers is required for the master")
	}
	tbl, _, _ := loadTable(storeDir, tableName)

	peers := map[string]string{}
	for i, a := range addrs {
		peers[cluster.WorkerName(i)] = a
	}
	cfg := cluster.MasterConfig{
		NumWorkers:          len(addrs),
		Policy:              task.Policy{TauD: tauD, TauDFS: tauDFS, NPool: npool},
		Heartbeat:           time.Second,
		Replicas:            replicas,
		CheckpointDir:       ck.dir,
		CheckpointEvery:     ck.every,
		HedgeFactor:         gf.hedge,
		QuarantineThreshold: gf.quarantine,
		SplitMode:           hm.mode,
		MaxBins:             hm.maxBins,
		AdvertiseAddr:       hc.advertise,
		Obs:                 reg,
	}
	if hc.standbyAddr != "" {
		peers[cluster.StandbyName] = hc.standbyAddr
		cfg.StandbyName = cluster.StandbyName
		cfg.LeaseTTL = hc.leaseTTL
	}
	ep, err := transport.ListenTCP(cluster.MasterName, listen, peers)
	if err != nil {
		log.Fatal(err)
	}
	placement := loadbal.RoundRobin(tbl.FeatureIndexes(), len(addrs), replicas)
	m, err := cluster.NewMaster(reg.Wrap(ep), cluster.SchemaOf(tbl), placement, cfg)
	if err != nil {
		log.Fatal(err)
	}
	m.Start()
	defer m.Stop()

	start := time.Now()
	var trained []*core.Tree
	if ck.resume {
		trained, err = m.Resume()
	} else {
		trained, err = m.Train(jobSpecs(tbl, job, trees, dmax, minLeaf))
	}
	if err != nil {
		log.Fatalf("training: %v", err)
	}
	fmt.Printf("trained %d tree(s) on %d rows across %d workers in %s\n",
		len(trained), tbl.NumRows(), len(addrs), time.Since(start).Round(time.Millisecond))
	writeModel(out, job, trained, tbl)
	printReport(reg, report)
}

// runStandby runs the hot-standby role: it materialises the primary's
// streamed checkpoint records, acks its lease renewals, and — if the lease
// lapses — promotes itself, listens on -promote-listen as the new master,
// re-homes the workers through the rejoin handshake, and finishes the job.
// The process exits when the takeover job completes; while the primary stays
// healthy it just keeps replicating.
func runStandby(listen, masterAddr, workerList, storeDir, tableName, job string, tauD, tauDFS, npool, replicas int, out string, reg *obs.Registry, report bool, ck ckpt, gf gray, hm histMode, hc ha) {
	if masterAddr == "" {
		log.Fatal("-master is required for the standby")
	}
	addrs := parseWorkers(workerList)
	if len(addrs) == 0 {
		log.Fatal("-workers is required for the standby (the promoted master must reach the fleet)")
	}
	if hc.promoteListen == "" || strings.HasSuffix(hc.promoteListen, ":0") {
		log.Fatal("-promote-listen is required for the standby: a concrete host:port the workers can reach after failover")
	}
	tbl, _, _ := loadTable(storeDir, tableName)

	peers := map[string]string{cluster.MasterName: masterAddr}
	workerPeers := map[string]string{}
	for i, a := range addrs {
		peers[cluster.WorkerName(i)] = a
		workerPeers[cluster.WorkerName(i)] = a
	}
	ep, err := transport.ListenTCP(cluster.StandbyName, listen, peers)
	if err != nil {
		log.Fatal(err)
	}
	ttl := hc.leaseTTL
	if ttl == 0 {
		ttl = cluster.DefaultLeaseTTL
	}
	sb, err := cluster.NewStandby(reg.Wrap(ep), cluster.StandbyConfig{
		Schema: cluster.SchemaOf(tbl),
		MasterCfg: cluster.MasterConfig{
			NumWorkers:          len(addrs),
			Policy:              task.Policy{TauD: tauD, TauDFS: tauDFS, NPool: npool},
			Heartbeat:           time.Second,
			Replicas:            replicas,
			CheckpointDir:       ck.dir,
			CheckpointEvery:     ck.every,
			HedgeFactor:         gf.hedge,
			QuarantineThreshold: gf.quarantine,
			SplitMode:           hm.mode,
			MaxBins:             hm.maxBins,
			AdvertiseAddr:       hc.promoteListen,
			Obs:                 reg,
		},
		LeaseTTL: ttl,
		// Over TCP the old primary's listener cannot be closed from here;
		// fencing relies on the takeover announcement plus the generation
		// fence carried by every rejoin request and task message.
		Rebind: func() (transport.Endpoint, error) {
			mep, err := transport.ListenTCP(cluster.MasterName, hc.promoteListen, workerPeers)
			if err != nil {
				return nil, err
			}
			return reg.Wrap(mep), nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	sb.Start()
	defer sb.Stop()
	fmt.Printf("standby on %s watching master %s (lease ttl %s)\n", ep.Addr(), masterAddr, ttl)

	<-sb.Done()
	trained, err := sb.Result()
	if err != nil {
		log.Fatalf("takeover: %v", err)
	}
	fmt.Printf("failover complete: finished %d tree(s) on %d rows across %d workers\n",
		len(trained), tbl.NumRows(), len(addrs))
	writeModel(out, job, trained, tbl)
	printReport(reg, report)
}
