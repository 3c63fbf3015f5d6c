//go:build !race

package san

const raceEnabled = false
