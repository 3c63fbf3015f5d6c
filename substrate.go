package omegasm

import (
	"fmt"
	"time"

	"omegasm/internal/engine"
	"omegasm/internal/san"
	"omegasm/internal/shmem"
)

// substrate is the shared-memory medium a cluster's processes
// communicate through: sync/atomic registers in process memory (the
// default) or registers replicated over simulated network-attached disks
// with quorum reads and writes (WithSAN — the deployment the paper's
// introduction motivates). The same algorithms run over either; only
// pacing defaults differ.
type substrate interface {
	// open allocates a fresh shared memory for an n-process cluster.
	open(n int, instrument bool) (*openedMem, error)
	// pacing returns the substrate's default (StepInterval, TimerUnit).
	pacing() (step, timer time.Duration)
}

// openedMem is what a substrate hands the cluster: the register memory
// plus any substrate-specific handles (the SAN's disks, for fault
// injection).
type openedMem struct {
	mem   shmem.Mem
	disks []*san.Disk
}

// atomicSubstrate is the default substrate: each register is a
// sync/atomic word, giving exactly the paper's 1WnR atomic-register
// semantics from the Go memory model's sequentially consistent atomics.
type atomicSubstrate struct{}

func (atomicSubstrate) pacing() (time.Duration, time.Duration) {
	// The shared engine defaults: one source for the live engine and the
	// options layer, so they cannot drift.
	return engine.DefaultStepInterval, engine.DefaultTimerUnit
}

func (atomicSubstrate) open(n int, instrument bool) (*openedMem, error) {
	return &openedMem{mem: shmem.NewAtomicMem(n, instrument)}, nil
}

// SANConfig parameterizes WithSAN's simulated disk farm. The zero value
// is a usable default: five ideal (zero-latency) disks.
type SANConfig struct {
	// Disks is the number of simulated disks (default 5). A majority must
	// stay alive for the cluster to make progress; prefer an odd count.
	Disks int
	// BaseLatency is the minimum per-operation disk latency. Zero is an
	// ideal SAN; 200us is a realistic commodity figure.
	BaseLatency time.Duration
	// Jitter is the uniform extra latency added per operation.
	Jitter time.Duration
	// SpikeP is the probability (0..1) of a latency spike per operation.
	SpikeP float64
	// Spike is the spike magnitude (uniform up to). Required when SpikeP
	// is positive.
	Spike time.Duration
	// Seed seeds the per-disk latency generators (default 1). Runs with
	// the same seed draw the same latency sequences.
	Seed int64
}

func (cfg SANConfig) normalize() (SANConfig, error) {
	if cfg.Disks == 0 {
		cfg.Disks = 5
	}
	if cfg.Disks < 1 {
		return cfg, fmt.Errorf("omegasm: SAN needs at least 1 disk, got %d", cfg.Disks)
	}
	if cfg.BaseLatency < 0 || cfg.Jitter < 0 || cfg.Spike < 0 {
		return cfg, fmt.Errorf("omegasm: SAN latencies must be non-negative")
	}
	if cfg.SpikeP < 0 || cfg.SpikeP > 1 {
		return cfg, fmt.Errorf("omegasm: SAN spike probability %v outside [0, 1]", cfg.SpikeP)
	}
	if cfg.SpikeP > 0 && cfg.Spike == 0 {
		return cfg, fmt.Errorf("omegasm: SAN spike probability set but spike magnitude is zero")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg, nil
}

// sanSubstrate is cfg.Disks simulated network-attached disks. Every
// register is replicated across all disks and accessed with the
// single-writer quorum discipline (write all / ack majority, read
// majority / highest sequence wins), so disk crashes below a majority are
// masked. Crash disks with Cluster.CrashDisk.
type sanSubstrate struct{ cfg SANConfig }

func (s sanSubstrate) pacing() (time.Duration, time.Duration) {
	return engine.DefaultSANStepInterval, engine.DefaultSANTimerUnit
}

func (s sanSubstrate) open(n int, instrument bool) (*openedMem, error) {
	cfg, err := s.cfg.normalize()
	if err != nil {
		return nil, err
	}
	disks := make([]*san.Disk, cfg.Disks)
	for d := range disks {
		disks[d] = san.NewDisk(san.Latency{
			Base:   cfg.BaseLatency,
			Jitter: cfg.Jitter,
			SpikeP: cfg.SpikeP,
			Spike:  cfg.Spike,
		}, cfg.Seed+int64(d))
	}
	var mem *san.DiskMem
	if instrument {
		mem, err = san.NewDiskMem(n, disks)
	} else {
		mem, err = san.NewUncountedDiskMem(n, disks)
	}
	if err != nil {
		return nil, err
	}
	return &openedMem{mem: mem, disks: disks}, nil
}
