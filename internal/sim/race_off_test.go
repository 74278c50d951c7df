//go:build !race

package sim

// raceEnabled reports whether the race detector is compiled in; tests
// that count allocations skip under it, because the race runtime
// allocates on its own behalf.
const raceEnabled = false
