//go:build race

package core

// raceEnabled reports whether the race detector is on. Under it
// sync.Pool deliberately drops a quarter of what is Put, so pooled
// buffers are re-allocated at random and allocation bounds do not hold.
const raceEnabled = true
