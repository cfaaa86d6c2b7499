//go:build !race

package bipartite

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
