//go:build race

package daemon

// raceEnabled reports whether the race detector is on; its
// instrumentation allocates, so allocation bounds do not hold under it.
const raceEnabled = true
