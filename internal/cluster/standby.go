package cluster

import (
	"fmt"
	"sync"
	"time"

	"treeserver/internal/checkpoint"
	"treeserver/internal/core"
	"treeserver/internal/obs"
	"treeserver/internal/transport"
)

// Standby is a hot-standby master: it materialises the primary's streamed
// checkpoint records into an in-memory replica and watches the failover
// lease. When the lease it observes lapses, it promotes itself — bumps the
// generation, announces the takeover, rebinds the master transport name,
// and drives the standard resume path (rejoin handshake, placement
// reconciliation, restart of unfinished trees) to finish the job with
// bit-identical results, never touching disk.
type Standby struct {
	ep      transport.Endpoint
	cfg     StandbyConfig
	obs     *obs.MasterObs
	replica *checkpoint.Replica

	leaseMu sync.Mutex
	lease   *leaseMachine

	mu       sync.Mutex
	master   *Master // the promoted master, nil until takeover
	result   []*core.Tree
	err      error
	promoted bool

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	doneOnce sync.Once
	wg       sync.WaitGroup
}

// StandbyConfig wires a standby to its fleet.
type StandbyConfig struct {
	// Schema is the dataset schema the promoted master trains against.
	Schema Schema
	// MasterCfg is the primary's configuration. Its LeaseTTL (default
	// DefaultLeaseTTL, as in NewMaster) is the watched lease duration. The
	// promoted master runs with it, minus StandbyName/LeaseTTL (it has no
	// standby behind it); everything else stays, including CheckpointDir if
	// the deployment also logs to disk.
	MasterCfg MasterConfig
	// Rebind re-homes the master transport name to the standby's side and
	// returns the fresh endpoint the promoted master will run on. In the
	// in-memory fabric this is MemNetwork.Reset(MasterName), which also
	// closes the old primary's mailbox — the authoritative fence.
	Rebind func() (transport.Endpoint, error)
}

// NewStandby builds a standby listening on ep (conventionally named
// StandbyName). Start launches its receive and watchdog loops.
func NewStandby(ep transport.Endpoint, cfg StandbyConfig) (*Standby, error) {
	if err := cfg.MasterCfg.validate(); err != nil {
		return nil, err
	}
	if cfg.MasterCfg.LeaseTTL == 0 {
		cfg.MasterCfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.Rebind == nil {
		return nil, fmt.Errorf("cluster: standby requires a Rebind hook")
	}
	return &Standby{
		ep:      ep,
		cfg:     cfg,
		obs:     cfg.MasterCfg.Obs.Master(),
		replica: checkpoint.NewReplica(),
		lease:   newLeaseMachine(cfg.MasterCfg.LeaseTTL),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}, nil
}

// Start launches the standby's receive loop and lease watchdog.
func (s *Standby) Start() {
	s.wg.Add(2)
	go s.recvLoop()
	go s.watchdog()
}

// Stop shuts the standby down. If it has promoted, the promoted master is
// stopped too (its workers get the shutdown broadcast).
func (s *Standby) Stop() {
	s.stopOnce.Do(func() {
		close(s.stop)
		s.mu.Lock()
		m := s.master
		s.mu.Unlock()
		if m != nil {
			m.Stop()
		}
		s.ep.Close()
	})
	s.wg.Wait()
}

// Done is closed once the standby has finished the job after a takeover (or
// failed trying). Never closed while the primary stays healthy.
func (s *Standby) Done() <-chan struct{} { return s.done }

// Result returns the takeover outcome: the completed forest or the error
// that ended the attempt. Valid after Done is closed.
func (s *Standby) Result() ([]*core.Tree, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.result, s.err
}

// Master returns the promoted master (nil before takeover). After a
// failover this is the cluster's acting master — boosting rounds continue
// against it.
func (s *Standby) Master() *Master {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.master
}

// Promoted reports whether the standby has begun a takeover.
func (s *Standby) Promoted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.promoted
}

// ReplicaStats returns how many streamed records the replica has applied
// and discarded as stale.
func (s *Standby) ReplicaStats() (applied, stale int64) {
	return s.replica.Stats()
}

func (s *Standby) finish(trees []*core.Tree, err error) {
	s.mu.Lock()
	s.result, s.err = trees, err
	s.mu.Unlock()
	s.doneOnce.Do(func() { close(s.done) })
}

func (s *Standby) recvLoop() {
	defer s.wg.Done()
	for {
		env, ok := s.ep.Recv()
		if !ok {
			return
		}
		switch msg := env.Payload.(type) {
		case CkptRecordMsg:
			s.handleRecord(msg)
		case LeaseGrantMsg:
			s.leaseMu.Lock()
			s.lease.Observe(time.Now(), msg.Gen)
			s.leaseMu.Unlock()
		case LeaseRenewMsg:
			s.handleRenew(msg)
		}
	}
}

func (s *Standby) handleRecord(msg CkptRecordMsg) {
	s.mu.Lock()
	promoted := s.promoted
	s.mu.Unlock()
	if promoted {
		return // a fenced primary's late records must not touch the replica
	}
	_ = s.replica.Apply(checkpoint.Record{Seq: msg.Seq, Kind: msg.Kind, Payload: msg.Payload})
	s.obs.StreamApplied(s.replica.Stats())
}

// handleRenew extends the watched lease and acks with the replica's applied
// count. Only current-generation renewals are acknowledged: acking a stale
// generation after a takeover would extend a lease nobody honours and muddy
// the primary's telemetry.
func (s *Standby) handleRenew(msg LeaseRenewMsg) {
	now := time.Now()
	s.leaseMu.Lock()
	s.lease.Observe(now, msg.Gen)
	ack := !s.lease.Fenced() && !s.lease.Leading(now) && msg.Gen == s.lease.MaxObserved()
	s.leaseMu.Unlock()
	if ack {
		applied, _ := s.replica.Stats()
		_ = s.ep.Send(MasterName, LeaseAckMsg{Gen: msg.Gen, Seq: msg.Seq, Records: applied})
	}
}

// watchdog polls the watched lease and fires the takeover when it lapses.
func (s *Standby) watchdog() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.MasterCfg.LeaseTTL / 4)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			s.leaseMu.Lock()
			lapsed := s.lease.Lapsed(time.Now())
			s.leaseMu.Unlock()
			if lapsed {
				s.promote()
				return
			}
		}
	}
}

// promote is the takeover: fence the old primary, re-home the fleet, resume
// the replicated job from memory. Runs once, on the watchdog goroutine.
func (s *Standby) promote() {
	st, err := s.replica.State()
	if err != nil {
		s.finish(nil, fmt.Errorf("cluster: standby takeover with no replicated checkpoint: %w", err))
		return
	}

	// The promoted master resumes at generation st.Gen+1 (resumeFrom bumps
	// it); acquire the matching lease generation so any stale renewal from
	// the old primary is recognisably below us.
	gen := leaseGen(st.Gen + 1)
	now := time.Now()
	s.leaseMu.Lock()
	if err := s.lease.Acquire(now, gen); err != nil {
		s.leaseMu.Unlock()
		s.finish(nil, fmt.Errorf("cluster: standby could not acquire lease: %w", err))
		return
	}
	s.leaseMu.Unlock()

	s.mu.Lock()
	s.promoted = true
	s.mu.Unlock()

	// Best-effort fast fence: tell a still-reachable primary it has been
	// superseded while the master name still routes to it. The rebind below
	// is the authoritative fence for an unreachable one.
	_ = s.ep.Send(MasterName, TakeoverMsg{Gen: gen})

	ep, err := s.cfg.Rebind()
	if err != nil {
		s.finish(nil, fmt.Errorf("cluster: standby could not rebind master endpoint: %w", err))
		return
	}

	cfg := s.cfg.MasterCfg
	cfg.StandbyName = "" // the promoted master runs without a standby
	cfg.LeaseTTL = 0
	if cfg.CheckpointDir == "" {
		cfg.CheckpointEvery = 0 // periodic snapshots had only the stream to go to
	}
	if st.NumWorkers > cfg.NumWorkers {
		// Membership records streamed before the failover grew the fleet
		// past the configured size: the promoted master adopts the larger
		// fleet so live-joined workers stay addressable.
		cfg.NumWorkers = st.NumWorkers
	}
	m, err := NewMaster(ep, s.cfg.Schema, st.Placement, cfg)
	if err != nil {
		s.finish(nil, err)
		return
	}
	m.Start()

	s.mu.Lock()
	s.master = m
	s.mu.Unlock()
	// Stop raced promotion and read a nil master: shut the new one down.
	select {
	case <-s.stop:
		m.Stop()
		s.finish(nil, fmt.Errorf("cluster: standby stopped during takeover"))
		return
	default:
	}

	trees, err := m.resumeFrom(st, checkpoint.LoadInfo{})
	if err == nil {
		s.obs.FailoverCompleted()
	}
	s.finish(trees, err)
}
