//go:build race

package san

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts at random, so pool-backed paths allocate and zero-allocation
// assertions do not apply.
const raceEnabled = true
