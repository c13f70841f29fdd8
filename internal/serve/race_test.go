//go:build race

package serve

// raceEnabled: the race detector's runtime allocates on its own (sync.Pool
// drops items at random), so allocation-count pins skip under -race.
const raceEnabled = true
