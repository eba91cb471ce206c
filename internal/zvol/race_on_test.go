//go:build race

package zvol

// raceEnabled reports whether the race detector is on. Under it
// sync.Pool deliberately drops a quarter of what is Put, so pooled codec
// state is re-allocated at random and allocation bounds do not hold.
const raceEnabled = true
