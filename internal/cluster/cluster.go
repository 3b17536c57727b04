package cluster

import (
	"fmt"
	"time"

	"treeserver/internal/core"
	"treeserver/internal/dataset"
	"treeserver/internal/loadbal"
	"treeserver/internal/obs"
	"treeserver/internal/task"
	"treeserver/internal/transport"
)

// AblationMode selects one of the paper-reproduction ablations. The modes
// are mutually exclusive by construction — the old pair of booleans could
// express a combination no experiment defines.
type AblationMode uint8

const (
	// AblationNone is the full TreeServer design (default).
	AblationNone AblationMode = iota
	// AblationRoundRobin replaces the Section-VI cost model with cyclic
	// worker assignment — the load-balancing ablation.
	AblationRoundRobin
	// AblationRelayRows reverts to the naive design Section V eliminates:
	// the master ships I_x inside every task plan — the row-relay ablation.
	AblationRelayRows

	ablationModes // sentinel for validation
)

// String implements fmt.Stringer.
func (m AblationMode) String() string {
	switch m {
	case AblationNone:
		return "none"
	case AblationRoundRobin:
		return "round-robin"
	case AblationRelayRows:
		return "relay-rows"
	default:
		return fmt.Sprintf("AblationMode(%d)", uint8(m))
	}
}

// SplitMode selects how column tasks find split conditions.
type SplitMode uint8

const (
	// SplitExact is the paper's exact column-partitioned search (default).
	// It is byte-identical to a build without hist mode and serves as the
	// correctness oracle.
	SplitExact SplitMode = iota
	// SplitHist is the approximate mode: sketch-proposed bins, per-column
	// histograms with subtraction; each worker answers its column task with
	// its best histogram candidate, exact with respect to the bins.
	SplitHist

	splitModes // sentinel for validation
)

// String implements fmt.Stringer.
func (m SplitMode) String() string {
	switch m {
	case SplitExact:
		return "exact"
	case SplitHist:
		return "hist"
	default:
		return fmt.Sprintf("SplitMode(%d)", uint8(m))
	}
}

// ParseSplitMode maps the -mode flag values onto SplitMode.
func ParseSplitMode(s string) (SplitMode, error) {
	switch s {
	case "", "exact":
		return SplitExact, nil
	case "hist":
		return SplitHist, nil
	default:
		return 0, fmt.Errorf("cluster: unknown split mode %q (want exact or hist)", s)
	}
}

// Config describes an in-process TreeServer deployment: the master's
// configuration plus the few settings that only exist when master, workers
// and fabric share one process. It is the internal carrier the Option
// constructors write into; callers normally use
// NewInProcess(tbl, cluster.WithWorkers(8), ...) rather than building one
// directly.
type Config struct {
	// MasterConfig is the master's configuration. NumWorkers defaults to 4,
	// Replicas to 2 (clamped to NumWorkers) and JobTimeout to 5 minutes
	// (negative disables it); every other field defaults as in NewMaster.
	MasterConfig
	// Compers is the computing-thread pool size per worker (paper: 10).
	// Default 4.
	Compers int
	// BandwidthBps models per-machine link speed (0 = unlimited).
	BandwidthBps float64
	// Passthrough skips gob serialisation on the in-memory fabric.
	Passthrough bool
	// Standby enables the hot-standby master: checkpoint records stream to a
	// live replica that takes over via the failover lease when the primary
	// dies. Works with or without CheckpointDir (diskless failover).
	Standby bool
	// WrapEndpoint, when set, decorates every endpoint (master and workers)
	// before use — the hook the chaos harness uses to inject faults into the
	// fabric without the cluster knowing.
	WrapEndpoint func(transport.Endpoint) transport.Endpoint
}

// Option mutates a Config — the documented constructor surface of
// NewInProcess.
type Option func(*Config)

// WithWorkers sets the number of worker machines.
func WithWorkers(n int) Option { return func(c *Config) { c.NumWorkers = n } }

// WithCompers sets the computing-thread pool size per worker.
func WithCompers(n int) Option { return func(c *Config) { c.Compers = n } }

// WithReplicas sets k, the column replication factor.
func WithReplicas(k int) Option { return func(c *Config) { c.Replicas = k } }

// WithPolicy sets the scheduling thresholds (τ_D, τ_dfs, n_pool).
func WithPolicy(p task.Policy) Option { return func(c *Config) { c.Policy = p } }

// WithHeartbeat enables worker failure detection at the probe interval.
func WithHeartbeat(d time.Duration) Option { return func(c *Config) { c.Heartbeat = d } }

// WithAblation selects an ablation experiment mode.
func WithAblation(m AblationMode) Option { return func(c *Config) { c.Ablation = m } }

// WithBandwidth models per-machine link speed in bytes per second.
func WithBandwidth(bps float64) Option { return func(c *Config) { c.BandwidthBps = bps } }

// WithPassthrough toggles gob-free delivery on the in-memory fabric.
func WithPassthrough(on bool) Option { return func(c *Config) { c.Passthrough = on } }

// WithJobTimeout bounds each Train call (negative disables the bound).
func WithJobTimeout(d time.Duration) Option { return func(c *Config) { c.JobTimeout = d } }

// WithTaskRetry enables master-side task re-execution on the per-attempt
// deadline, bounded to maxAttempts executions per task (0 = default 5).
func WithTaskRetry(every time.Duration, maxAttempts int) Option {
	return func(c *Config) {
		c.TaskRetry = every
		c.MaxTaskAttempts = maxAttempts
	}
}

// WithHeartbeatBudget overrides the failure-detection budget: a worker is
// declared failed when its freshest pong lags the cluster's freshest pong by
// more than this many probes.
func WithHeartbeatBudget(probes int) Option {
	return func(c *Config) { c.HeartbeatBudget = probes }
}

// WithHedgeFactor enables hedged task execution: a task attempt outliving
// factor × the fleet latency estimate for its size gets a racing duplicate on
// a disjoint set of workers; the first complete attempt wins.
func WithHedgeFactor(factor float64) Option {
	return func(c *Config) { c.HedgeFactor = factor }
}

// WithQuarantine enables straggler quarantine: workers scoring below
// threshold are excluded from new placement (at most maxQuarantined at once;
// 0 = default) until a probe round-trip passes at fleet-typical speed.
func WithQuarantine(threshold float64, maxQuarantined int) Option {
	return func(c *Config) {
		c.QuarantineThreshold = threshold
		c.MaxQuarantined = maxQuarantined
	}
}

// WithSplitMode selects exact or histogram-approximate split finding.
func WithSplitMode(m SplitMode) Option { return func(c *Config) { c.SplitMode = m } }

// WithMaxBins bounds the number of bins per numeric column in hist mode.
func WithMaxBins(n int) Option { return func(c *Config) { c.MaxBins = n } }

// WithMaxTreeRestarts bounds delegate-loss restarts per tree; exceeding it
// fails the job with a clear error instead of restarting forever.
func WithMaxTreeRestarts(n int) Option { return func(c *Config) { c.MaxTreeRestarts = n } }

// WithCheckpoint enables durable master checkpointing into dir, with optional
// periodic snapshots every `every` (0 = snapshots at tree boundaries only).
func WithCheckpoint(dir string, every time.Duration) Option {
	return func(c *Config) {
		c.CheckpointDir = dir
		c.CheckpointEvery = every
	}
}

// WithStandby enables the hot-standby master: every checkpoint record
// streams to a live replica that takes over, diskless, when the failover
// lease lapses.
func WithStandby() Option { return func(c *Config) { c.Standby = true } }

// WithLease enables the standby with an explicit failover lease duration.
func WithLease(ttl time.Duration) Option {
	return func(c *Config) {
		c.Standby = true
		c.LeaseTTL = ttl
	}
}

// WithRejoinTimeout bounds the worker rejoin handshake during Resume.
func WithRejoinTimeout(d time.Duration) Option { return func(c *Config) { c.RejoinTimeout = d } }

// WithFleetCap bounds the total fleet size live joins may grow the cluster
// to (0 = unbounded). Join requests that would exceed the cap are rejected
// at admission.
func WithFleetCap(n int) Option { return func(c *Config) { c.FleetCap = n } }

// WithEndpointWrapper decorates every endpoint before use (fault injection).
func WithEndpointWrapper(wrap func(transport.Endpoint) transport.Endpoint) Option {
	return func(c *Config) { c.WrapEndpoint = wrap }
}

// WithObserver attaches a telemetry registry to the deployment.
func WithObserver(r *obs.Registry) Option { return func(c *Config) { c.Obs = r } }

// WithConfig replaces the whole Config — the escape hatch for harnesses that
// build configurations programmatically (chaos grids, experiment sweeps).
// Options applied after it still take effect.
func WithConfig(cfg Config) Option { return func(c *Config) { *c = cfg } }

// withDefaults fills the in-process defaults. It only replaces zero values,
// so a negative count still reaches MasterConfig.validate and is rejected.
func (c Config) withDefaults() Config {
	if c.NumWorkers == 0 {
		c.NumWorkers = 4
	}
	if c.Compers == 0 {
		c.Compers = 4
	}
	if c.Replicas == 0 {
		c.Replicas = min(2, c.NumWorkers)
	}
	if c.JobTimeout == 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.JobTimeout < 0 {
		c.JobTimeout = 0
	}
	// The in-process standby always listens under StandbyName.
	c.StandbyName = ""
	if c.Standby {
		c.StandbyName = StandbyName
	}
	return c
}

// Cluster is an in-process TreeServer deployment: one master plus N workers
// as goroutine groups over an in-memory transport. Every message still
// crosses a gob serialisation boundary, so the protocol is exercised exactly
// as it would be over TCP.
type Cluster struct {
	Master  *Master
	Workers []*Worker
	Standby *Standby // non-nil when built WithStandby/WithLease
	Net     *transport.MemNetwork
	cfg     Config
	start   time.Time

	// Stored so RestartMaster can build a replacement master on the same
	// fabric after KillMaster.
	schema    Schema
	placement loadbal.Placement
	endpoint  func(string) transport.Endpoint

	// y is the shared label column, kept so Join can hand it to workers
	// created after construction (the paper loads Y on every machine).
	y *dataset.Column
}

// NewInProcess partitions the table's columns over the configured number of
// workers (k replicas each, Y everywhere — the paper's loading scheme) and
// starts master and workers. Invalid configurations (negative counts, more
// replicas than workers, unknown ablation modes, missing table) return an
// error instead of silently defaulting, matching dataset.NewTable's
// convention.
func NewInProcess(tbl *dataset.Table, opts ...Option) (*Cluster, error) {
	if tbl == nil {
		return nil, fmt.Errorf("cluster: nil table")
	}
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.Compers < 0 {
		return nil, fmt.Errorf("cluster: Compers %d is negative", cfg.Compers)
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}

	net := transport.NewMemNetwork()
	net.BandwidthBps = cfg.BandwidthBps
	net.Passthrough = cfg.Passthrough

	schema := SchemaOf(tbl)
	placement := loadbal.RoundRobin(tbl.FeatureIndexes(), cfg.NumWorkers, cfg.Replicas)

	// The telemetry decorator wraps outermost so it observes exactly what the
	// application sends and receives — after any fault-injection wrapper has
	// had its chance to drop or delay the message.
	endpoint := func(name string) transport.Endpoint {
		ep := transport.Endpoint(net.Endpoint(name))
		if cfg.WrapEndpoint != nil {
			ep = cfg.WrapEndpoint(ep)
		}
		return cfg.Obs.Wrap(ep)
	}

	c := &Cluster{Net: net, cfg: cfg, start: time.Now()}
	for w := 0; w < cfg.NumWorkers; w++ {
		cols := map[int]*dataset.Column{}
		for col, owners := range placement.Owners {
			for _, o := range owners {
				if o == w {
					cols[col] = tbl.Cols[col]
				}
			}
		}
		worker := NewWorker(w, endpoint(WorkerName(w)), schema, cols, tbl.Y(), cfg.Compers, cfg.Obs)
		worker.Start()
		c.Workers = append(c.Workers, worker)
	}
	c.schema, c.placement, c.endpoint = schema, placement, endpoint
	c.y = tbl.Y()
	if cfg.Standby {
		// The standby endpoint must exist before the master starts: the
		// in-memory fabric treats a send to an unknown name as permanent.
		sb, err := NewStandby(endpoint(StandbyName), StandbyConfig{
			Schema:    schema,
			MasterCfg: cfg.MasterConfig,
			Rebind:    c.rebindMasterEndpoint,
		})
		if err != nil {
			for _, w := range c.Workers {
				w.Stop()
			}
			net.Close()
			return nil, err
		}
		c.Standby = sb
		c.Standby.Start()
	}
	m, err := NewMaster(endpoint(MasterName), schema, placement, cfg.MasterConfig)
	if err != nil {
		if c.Standby != nil {
			c.Standby.Stop()
		}
		for _, w := range c.Workers {
			w.Stop()
		}
		net.Close()
		return nil, err
	}
	c.Master = m
	c.Master.Start()
	return c, nil
}

// rebindMasterEndpoint re-homes the master transport name: the old
// incarnation's mailbox closes (its recv loop sees the endpoint die) and a
// fresh endpoint with the same name — same telemetry and fault-injection
// wrapping — is returned for the successor. Shared by RestartMaster and the
// standby takeover: both replace the master behind an unchanged fleet.
func (c *Cluster) rebindMasterEndpoint() (transport.Endpoint, error) {
	c.Net.Reset(MasterName)
	return c.endpoint(MasterName), nil
}

// Observer returns the telemetry registry the cluster was built with (nil
// when telemetry is disabled).
func (c *Cluster) Observer() *obs.Registry { return c.cfg.Obs }

// Train runs one job and returns the trees in spec order.
func (c *Cluster) Train(specs []TreeSpec) ([]*core.Tree, error) {
	return c.Master.Train(specs)
}

// TrainOne trains a single tree with the given parameters over all rows.
func (c *Cluster) TrainOne(params core.Params) (*core.Tree, error) {
	trees, err := c.Train([]TreeSpec{{Params: params}})
	if err != nil {
		return nil, err
	}
	return trees[0], nil
}

// Join spins up a fresh worker machine on the cluster's fabric and runs the
// live-join handshake: the worker announces itself, receives its column
// replicas from the master-driven rebalance, and blocks until admitted into
// the fleet (or terminally rejected — fleet cap, generation fence). The
// worker is appended to c.Workers either way so Close still stops it. Not
// safe for concurrent Join calls.
func (c *Cluster) Join() (*Worker, error) {
	i := len(c.Workers)
	w := NewWorker(i, c.endpoint(WorkerName(i)), c.schema, map[int]*dataset.Column{}, c.y, c.cfg.Compers, c.cfg.Obs)
	w.Start()
	c.Workers = append(c.Workers, w)
	if err := w.Join(c.cfg.JobTimeout); err != nil {
		return w, err
	}
	return w, nil
}

// Drain cordons worker i, lets its in-flight work finish, hands its
// last-replica columns to survivors and retires it without failing the job.
// Blocks until the worker is retired (or force-shed on timeout).
func (c *Cluster) Drain(i int) error {
	return c.activeMaster().Drain(i)
}

// activeMaster resolves the cluster's acting master: the promoted standby
// after a failover, the original otherwise.
func (c *Cluster) activeMaster() *Master {
	if c.Standby != nil {
		if m := c.Standby.Master(); m != nil {
			return m
		}
	}
	return c.Master
}

// CrashWorker simulates a machine failure: the worker's endpoint starts
// dropping all traffic. Recovery is driven by the heartbeat prober, or
// manually via Master.NotifyWorkerFailure.
func (c *Cluster) CrashWorker(i int) {
	c.Net.Endpoint(WorkerName(i)).Crash()
}

// KillMaster simulates a master crash: its loops stop and its endpoint dies
// without notifying the workers, which keep their column shards and idle.
// RestartMaster builds the replacement.
func (c *Cluster) KillMaster() {
	c.Master.Kill()
}

// RestartMaster replaces a killed master with a fresh instance on the same
// fabric, same configuration and same checkpoint directory. Call Resume on
// the cluster afterwards to recover the interrupted job.
func (c *Cluster) RestartMaster() error {
	ep, err := c.rebindMasterEndpoint()
	if err != nil {
		return err
	}
	m, err := NewMaster(ep, c.schema, c.placement, c.cfg.MasterConfig)
	if err != nil {
		return err
	}
	c.Master = m
	c.Master.Start()
	return nil
}

// Resume recovers the interrupted job from the checkpoint directory: done
// trees are restored from disk, unfinished trees restart, and the result is
// bit-identical to an uninterrupted run.
func (c *Cluster) Resume() ([]*core.Tree, error) {
	return c.Master.Resume()
}

// Close shuts the deployment down.
func (c *Cluster) Close() {
	if c.Standby != nil {
		c.Standby.Stop()
	}
	c.Master.Stop()
	for _, w := range c.Workers {
		w.Stop()
	}
	c.Net.Close()
}

// Metrics summarises a cluster's activity for the experiment harnesses.
type Metrics struct {
	WallSeconds     float64
	WorkerBusy      []float64 // comper busy seconds per worker
	CPUUtilisation  float64   // average busy-compers per worker, like the paper's "CPU %"
	WorkerSentBytes int64
	MasterSentBytes int64
	SendMbps        float64 // aggregate worker outbound rate
}

// MetricsSince summarises activity between a wall-clock start and now.
func (c *Cluster) MetricsSince(start time.Time) Metrics {
	wall := time.Since(start).Seconds()
	m := Metrics{WallSeconds: wall}
	var busy float64
	for _, w := range c.Workers {
		b := w.BusySeconds()
		m.WorkerBusy = append(m.WorkerBusy, b)
		busy += b
		m.WorkerSentBytes += w.TransportStats().BytesSent
	}
	m.MasterSentBytes = c.Master.TransportStats().BytesSent
	if wall > 0 {
		// busy/wall is the average number of simultaneously busy compers in
		// the cluster; per machine and ×100 matches the paper's "CPU %"
		// convention (e.g. 837% = 8.37 cores busy).
		m.CPUUtilisation = busy / wall / float64(len(c.Workers)) * 100
		m.SendMbps = float64(m.WorkerSentBytes) * 8 / 1e6 / wall
	}
	return m
}
