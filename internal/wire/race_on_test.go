//go:build race

package wire

// raceEnabled: the race detector makes sync.Pool drop a share of its Puts
// on purpose, so pool-reuse assertions do not hold under -race.
const raceEnabled = true
