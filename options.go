package omegasm

import (
	"fmt"
	"time"
)

// Option configures New (cluster options), NewFleet (cluster options
// applied to every member, plus the fleet-only WithClusters) or
// NewShardedKV (cluster options plus the sharded-only WithShards and
// WithBatchSize). Options are applied in order; later options override
// earlier ones. An option that is invalid on its own (WithN(1),
// WithAlgorithm(99)) fails the constructor with a descriptive error, as
// do conflicting combinations (two WithSAN) and options passed to a
// constructor they do not apply to (WithClusters to New or NewShardedKV,
// sharded-only options to New or NewFleet).
type Option func(*settings) error

// settings is the resolved configuration an option list denotes. One
// settings value describes one cluster; fleet-only fields ride along and
// are rejected where they make no sense.
type settings struct {
	// Cluster-level.
	n            int
	algorithm    Algorithm
	stepInterval time.Duration
	stepSet      bool
	timerUnit    time.Duration
	timerSet     bool
	instrument   bool
	substrate    substrate
	substrateSet bool

	// Fleet-level.
	clusters    int
	clustersSet bool // WithClusters seen; New and NewShardedKV reject it

	// Sharded-store-level (NewShardedKV only). checkpointEvery keeps the
	// ckptAuto sentinel until withCheckpointEvery chooses a cadence.
	shards          int
	batchSize       int
	shardSlots      int
	checkpointEvery int
	shardedOpts     []string // sharded-only options seen; New and NewFleet reject them
}

// newSettings returns the defaults an empty option list denotes. N has no
// default: WithN is required.
func newSettings() *settings {
	return &settings{
		algorithm:       WriteEfficient,
		substrate:       atomicSubstrate{},
		clusters:        1,
		shards:          1,
		checkpointEvery: ckptAuto,
	}
}

// apply runs every option against s.
func (s *settings) apply(opts []Option) error {
	for _, o := range opts {
		if o == nil {
			return fmt.Errorf("omegasm: nil Option")
		}
		if err := o(s); err != nil {
			return err
		}
	}
	return nil
}

// finalizeCluster validates the cluster-level fields and fills the
// remaining defaults (the substrate chooses the pacing defaults: disk
// registers are orders of magnitude slower than atomic words).
func (s *settings) finalizeCluster() error {
	if s.n < 2 {
		return fmt.Errorf("omegasm: need at least 2 processes, got %d (use WithN)", s.n)
	}
	if !s.algorithm.valid() {
		return fmt.Errorf("omegasm: unknown algorithm %v", s.algorithm)
	}
	step, timer := s.substrate.pacing()
	if !s.stepSet {
		s.stepInterval = step
	}
	if !s.timerSet {
		s.timerUnit = timer
	}
	return nil
}

// rejectFleetOptions errors if the fleet-only WithClusters was used; New
// calls it so the option cannot silently vanish into a single cluster.
func (s *settings) rejectFleetOptions() error {
	if s.clustersSet {
		return fmt.Errorf("omegasm: option WithClusters only applies to NewFleet")
	}
	return nil
}

// rejectShardedOptions errors if any sharded-store-only option was used;
// New and NewFleet call it so WithShards et al. cannot silently vanish.
func (s *settings) rejectShardedOptions() error {
	if len(s.shardedOpts) > 0 {
		return fmt.Errorf("omegasm: option %s only applies to NewShardedKV", s.shardedOpts[0])
	}
	return nil
}

// WithN sets the number of processes per cluster (required, >= 2).
func WithN(n int) Option {
	return func(s *settings) error {
		if n < 2 {
			return fmt.Errorf("omegasm: need at least 2 processes, got %d", n)
		}
		s.n = n
		return nil
	}
}

// WithAlgorithm selects the election algorithm (default WriteEfficient).
// All four variants — WriteEfficient, Bounded, NWnR, TimerFree — run on
// every substrate.
func WithAlgorithm(a Algorithm) Option {
	return func(s *settings) error {
		if !a.valid() {
			return fmt.Errorf("omegasm: unknown algorithm %v", a)
		}
		s.algorithm = a
		return nil
	}
}

// WithStepInterval sets the pause between main-loop iterations of each
// process. The default depends on the substrate: 200us on atomic memory,
// 2ms on a SAN (quorum disk accesses are slow; pacing faster than the
// medium just queues suspicion). Smaller values elect faster and write
// more.
func WithStepInterval(d time.Duration) Option {
	return func(s *settings) error {
		if d <= 0 {
			return fmt.Errorf("omegasm: step interval must be positive, got %v", d)
		}
		s.stepInterval = d
		s.stepSet = true
		return nil
	}
}

// WithTimerUnit sets the conversion from the algorithms' abstract timeout
// values into real durations. The default depends on the substrate: 2ms
// on atomic memory, 25ms on a SAN.
func WithTimerUnit(d time.Duration) Option {
	return func(s *settings) error {
		if d <= 0 {
			return fmt.Errorf("omegasm: timer unit must be positive, got %v", d)
		}
		s.timerUnit = d
		s.timerSet = true
		return nil
	}
}

// WithInstrumentation enables the shared-memory access census (Stats).
// The census is lock-free — per-process atomic counters per register — so
// the cost is a few uncontended atomic adds per access.
func WithInstrumentation() Option {
	return func(s *settings) error {
		s.instrument = true
		return nil
	}
}

// WithSAN runs the cluster over quorum-replicated simulated
// network-attached disks, the paper's motivating deployment, instead of
// the default sync/atomic registers in process memory. A second WithSAN
// is a conflict.
func WithSAN(cfg SANConfig) Option {
	return func(s *settings) error {
		if _, err := cfg.normalize(); err != nil {
			return err
		}
		if s.substrateSet {
			return fmt.Errorf("omegasm: conflicting substrate options (WithSAN after the substrate was already chosen)")
		}
		s.substrate = sanSubstrate{cfg: cfg}
		s.substrateSet = true
		return nil
	}
}

// WithClusters sets the number of independent clusters a Fleet runs
// (default 1). Fleet-only.
func WithClusters(k int) Option {
	return func(s *settings) error {
		if k < 1 {
			return fmt.Errorf("omegasm: need at least 1 cluster, got %d", k)
		}
		s.clusters = k
		s.clustersSet = true
		return nil
	}
}

// WithShards sets the number of hash partitions of a ShardedKV (default
// 1). Each shard is one consensus-backed replicated store over its own
// cluster of the store's fleet, so S shards run S independent Disk-Paxos
// logs whose commit pipelines never contend with each other.
// NewShardedKV-only.
func WithShards(s int) Option {
	return func(set *settings) error {
		if s < 1 {
			return fmt.Errorf("omegasm: need at least 1 shard, got %d", s)
		}
		set.shards = s
		set.shardedOpts = append(set.shardedOpts, "WithShards")
		return nil
	}
}

// WithBatchSize sets how many queued writes one consensus slot of a
// ShardedKV shard may commit (default 32; 1 turns batching off). Larger
// batches amortize one Disk-Paxos round — and its quorum I/O on the SAN —
// across more writes at the price of the reserved key 0xFFFF (see
// KVBatch). NewShardedKV-only; for a standalone KV pass KVBatch to NewKV
// instead.
func WithBatchSize(b int) Option {
	return func(set *settings) error {
		if b < 1 {
			return fmt.Errorf("omegasm: batch size must be at least 1, got %d", b)
		}
		set.batchSize = b
		set.shardedOpts = append(set.shardedOpts, "WithBatchSize")
		return nil
	}
}

// withShardSlots sets the replicated-log window, in consensus slots, of
// each shard of a ShardedKV (default 1024, as NewKV): the tests shrink it
// to stream through many checkpoints. NewShardedKV-only.
func withShardSlots(n int) Option {
	return func(set *settings) error {
		if n < 1 {
			return fmt.Errorf("omegasm: need at least 1 log slot per shard, got %d", n)
		}
		set.shardSlots = n
		set.shardedOpts = append(set.shardedOpts, "withShardSlots")
		return nil
	}
}

// withCheckpointEvery sets each shard's checkpoint cadence, as
// kvCheckpointEvery does for one store (default: a quarter of the
// shard's slot window; 0 disables checkpointing). n must be below the
// shard slot count. NewShardedKV-only.
func withCheckpointEvery(n int) Option {
	return func(set *settings) error {
		if n < 0 {
			return fmt.Errorf("omegasm: checkpoint interval must not be negative, got %d", n)
		}
		set.checkpointEvery = n
		set.shardedOpts = append(set.shardedOpts, "withCheckpointEvery")
		return nil
	}
}
