package engine

import "time"

// The module-wide pacing defaults. Every layer that needs a default
// cadence — the live runtime's normalize, the public substrate pacing in
// options/substrate.go, the fleet's view refresher — reads these
// constants, so the live engine and the public options cannot drift
// apart.
const (
	// DefaultStepInterval is the idle poll cadence of a live machine on
	// atomic shared memory: the pause between T2 iterations when nothing
	// has notified the machine earlier.
	DefaultStepInterval = 200 * time.Microsecond
	// DefaultTimerUnit converts the algorithms' abstract timeout values
	// into real durations on atomic shared memory.
	DefaultTimerUnit = 2 * time.Millisecond

	// DefaultSANStepInterval and DefaultSANTimerUnit are the equivalents
	// over the SAN substrate, where every register access is quorum disk
	// I/O: pacing faster than the medium just queues suspicion.
	DefaultSANStepInterval = 2 * time.Millisecond
	DefaultSANTimerUnit    = 25 * time.Millisecond
)
