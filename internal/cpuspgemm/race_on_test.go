//go:build race

package cpuspgemm

// raceEnabled reports that the race detector is on: sync.Pool then
// drops a share of its Puts on purpose, so pooled buffers re-grow and
// allocation counts stop being deterministic.
const raceEnabled = true
