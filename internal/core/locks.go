package core

import "sync"

// keyLocks is a lazily populated set of per-key mutexes. Its one
// instance, Squirrel.imageLocks, hands out the per-image locks: images
// are registered and deregistered for as long as the deployment runs,
// so their key set is open. Compute nodes are fixed at New and each
// carries its own lock (replica.mu); the deployment-wide lock order is
// written there.
type keyLocks struct {
	mu sync.Mutex
	m  map[string]*sync.Mutex
}

func newKeyLocks() *keyLocks {
	return &keyLocks{m: make(map[string]*sync.Mutex)}
}

// lock acquires and returns the mutex for key, creating it on first
// use, so callers can write `defer s.imageLocks.lock(id).Unlock()`.
// Entries are never evicted: the map grows to the number of image IDs
// ever named.
func (k *keyLocks) lock(key string) *sync.Mutex {
	k.mu.Lock()
	l, ok := k.m[key]
	if !ok {
		l = &sync.Mutex{}
		k.m[key] = l
	}
	k.mu.Unlock()
	l.Lock()
	return l
}
