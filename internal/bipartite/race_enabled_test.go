//go:build race

package bipartite

// raceEnabled reports whether the race detector is active. Its sync.Pool
// instrumentation randomly drops cached buffers, so allocation-count
// assertions are skipped under -race.
const raceEnabled = true
