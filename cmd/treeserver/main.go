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
	"strings"

	"treeserver/internal/cluster"
	"treeserver/internal/dataset"
	"treeserver/internal/dfs"
	"treeserver/internal/forest"
	"treeserver/internal/loadbal"
	"treeserver/internal/obs"
	"treeserver/internal/traincli"
	"treeserver/internal/transport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("treeserver: ")
	f := traincli.TreeserverFlags(flag.CommandLine)
	flag.Parse()
	reg := f.Telemetry()
	switch f.Role {
	case "local":
		runLocal(f)
	case "worker":
		runWorker(f, reg)
	case "master":
		runMaster(f, reg)
	case "standby":
		runStandby(f, reg)
	default:
		log.Fatalf("unknown role %q", f.Role)
	}
}

func loadTable(storeDir, name string) *dataset.Table {
	if storeDir == "" {
		log.Fatal("-store is required")
	}
	store, err := dfs.NewDirStore(storeDir)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := dfs.ReadLayout(store, name); err != nil {
		log.Fatalf("reading table layout (did you run tsput?): %v", err)
	}
	tbl, err := dfs.LoadTable(store, name)
	if err != nil {
		log.Fatalf("loading table: %v", err)
	}
	return tbl
}

func runLocal(f *traincli.Treeserver) {
	tbl := loadTable(f.Store, f.Table)
	trained, err := f.TrainLocal(tbl)
	if err != nil {
		log.Fatal(err)
	}
	writeModel(f, trained, tbl)
}

func writeModel(f *traincli.Treeserver, trained *forest.Forest, tbl *dataset.Table) {
	if err := f.WriteModel(trained, tbl); err != nil {
		log.Fatal(err)
	}
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

func runWorker(f *traincli.Treeserver, reg *obs.Registry) {
	if f.Master == "" {
		log.Fatal("-master is required for workers")
	}
	addrs := parseWorkers(f.Workers)
	if f.ID < 0 || f.ID >= len(addrs) {
		log.Fatalf("worker id %d out of range for %d workers", f.ID, len(addrs))
	}
	tbl := loadTable(f.Store, f.Table)

	peers := map[string]string{cluster.MasterName: f.Master}
	for i, a := range addrs {
		peers[cluster.WorkerName(i)] = a
	}
	ep, err := transport.ListenTCP(cluster.WorkerName(f.ID), f.Listen, peers)
	if err != nil {
		log.Fatal(err)
	}
	cols := workerColumns(tbl, len(addrs), f.Replicas, f.ID)
	w := cluster.NewWorker(f.ID, reg.Wrap(ep), cluster.SchemaOf(tbl), cols, tbl.Y(), f.Compers, reg)
	w.Start()
	fmt.Printf("worker %d serving %d columns on %s\n", f.ID, len(cols), ep.Addr())
	w.Wait()
	fmt.Printf("worker %d: shutdown\n", f.ID)
}

func runMaster(f *traincli.Treeserver, reg *obs.Registry) {
	addrs := parseWorkers(f.Workers)
	if len(addrs) == 0 {
		log.Fatal("-workers is required for the master")
	}
	spec, err := f.Model()
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := f.MasterConfig(len(addrs))
	if err != nil {
		log.Fatal(err)
	}
	cfg.AdvertiseAddr = f.Advertise
	tbl := loadTable(f.Store, f.Table)

	peers := map[string]string{}
	for i, a := range addrs {
		peers[cluster.WorkerName(i)] = a
	}
	if f.StandbyAddr != "" {
		peers[cluster.StandbyName] = f.StandbyAddr
	}
	ep, err := transport.ListenTCP(cluster.MasterName, f.Listen, peers)
	if err != nil {
		log.Fatal(err)
	}
	placement := loadbal.RoundRobin(tbl.FeatureIndexes(), len(addrs), f.Replicas)
	m, err := cluster.NewMaster(reg.Wrap(ep), cluster.SchemaOf(tbl), placement, cfg)
	if err != nil {
		log.Fatal(err)
	}
	m.Start()
	defer m.Stop()

	trained, err := f.Run(m, cluster.SchemaOf(tbl), spec, nil)
	if err != nil {
		log.Fatal(err)
	}
	writeModel(f, trained, tbl)
}

// runStandby runs the hot-standby role: it materialises the primary's
// streamed checkpoint records, acks its lease renewals, and — if the lease
// lapses — promotes itself, listens on -promote-listen as the new master,
// re-homes the workers through the rejoin handshake, and finishes the job.
// The process exits when the takeover job completes; while the primary stays
// healthy it just keeps replicating.
func runStandby(f *traincli.Treeserver, reg *obs.Registry) {
	if f.Master == "" {
		log.Fatal("-master is required for the standby")
	}
	addrs := parseWorkers(f.Workers)
	if len(addrs) == 0 {
		log.Fatal("-workers is required for the standby (the promoted master must reach the fleet)")
	}
	if f.PromoteListen == "" || strings.HasSuffix(f.PromoteListen, ":0") {
		log.Fatal("-promote-listen is required for the standby: a concrete host:port the workers can reach after failover")
	}
	cfg, err := f.MasterConfig(len(addrs))
	if err != nil {
		log.Fatal(err)
	}
	cfg.AdvertiseAddr = f.PromoteListen
	tbl := loadTable(f.Store, f.Table)

	peers := map[string]string{cluster.MasterName: f.Master}
	workerPeers := map[string]string{}
	for i, a := range addrs {
		peers[cluster.WorkerName(i)] = a
		workerPeers[cluster.WorkerName(i)] = a
	}
	ep, err := transport.ListenTCP(cluster.StandbyName, f.Listen, peers)
	if err != nil {
		log.Fatal(err)
	}
	sb, err := cluster.NewStandby(reg.Wrap(ep), cluster.StandbyConfig{
		Schema:    cluster.SchemaOf(tbl),
		MasterCfg: cfg,
		// Over TCP the old primary's listener cannot be closed from here;
		// fencing relies on the takeover announcement plus the generation
		// fence carried by every rejoin request and task message.
		Rebind: func() (transport.Endpoint, error) {
			mep, err := transport.ListenTCP(cluster.MasterName, f.PromoteListen, workerPeers)
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
	fmt.Printf("standby on %s watching master %s\n", ep.Addr(), f.Master)

	<-sb.Done()
	trees, err := sb.Result()
	if err != nil {
		log.Fatalf("takeover: %v", err)
	}
	fmt.Printf("failover complete: finished %d tree(s) on %d rows across %d workers\n",
		len(trees), tbl.NumRows(), len(addrs))
	f.PrintReport()
	writeModel(f, &forest.Forest{Trees: trees, Task: tbl.Task(), NumClasses: tbl.NumClasses()}, tbl)
}
