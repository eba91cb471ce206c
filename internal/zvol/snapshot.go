package zvol

import (
	"fmt"
	"time"
)

// Snapshot creates a named, immutable view of the volume's current object
// table at the given time. The snapshot becomes one more holder of every
// object it lists, so deleting live objects cannot free data a snapshot
// still needs — the property that makes ZFS snapshots "cheap as long as
// they do not reference data that no longer exists" (§3.2). Cost is one
// counter per object: block pointers and the DDT are not touched.
//
// The timestamp is injected (not read from the wall clock) so garbage
// collection windows are testable and simulations are deterministic.
func (v *Volume) Snapshot(name string, at time.Time) (*Snapshot, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.findSnapLocked(name) != nil {
		return nil, fmt.Errorf("%w: %s", ErrSnapExists, name)
	}
	return v.snapshotLocked(name, at), nil
}

// snapshotLocked captures the live table as snapshot name: Snapshot and
// the commit of a receive both end here.
func (v *Volume) snapshotLocked(name string, at time.Time) *Snapshot {
	objs := make(map[string]*Object, len(v.objects))
	for n, o := range v.objects {
		objs[n] = o // objects are immutable once written
		o.holders++
	}
	s := &Snapshot{Name: name, Created: at, objects: objs, ptrs: v.livePtrs}
	v.snaps = append(v.snaps, s)
	v.snapPtrs += s.ptrs
	return s
}

// destroySnapLocked lets go of every object s lists; the caller has
// already taken s off v.snaps.
func (v *Volume) destroySnapLocked(s *Snapshot) {
	v.snapPtrs -= s.ptrs
	for _, o := range s.objects {
		v.dropHolderLocked(o)
	}
}

// findSnapLocked returns the snapshot named name, or nil.
func (v *Volume) findSnapLocked(name string) *Snapshot {
	for _, s := range v.snaps {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// FindSnapshot returns the snapshot named name.
func (v *Volume) FindSnapshot(name string) (*Snapshot, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if s := v.findSnapLocked(name); s != nil {
		return s, nil
	}
	return nil, fmt.Errorf("%w: snapshot %s", ErrNotFound, name)
}

// Snapshots lists snapshots in creation order.
func (v *Volume) Snapshots() []*Snapshot {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]*Snapshot, len(v.snaps))
	copy(out, v.snaps)
	return out
}

// LatestSnapshot returns the most recent snapshot, or nil if none exist.
func (v *Volume) LatestSnapshot() *Snapshot {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if len(v.snaps) == 0 {
		return nil
	}
	return v.snaps[len(v.snaps)-1]
}

// DeleteSnapshot destroys a snapshot, releasing the objects only it held.
func (v *Volume) DeleteSnapshot(name string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	for i, s := range v.snaps {
		if s.Name == name {
			v.snaps = append(v.snaps[:i], v.snaps[i+1:]...)
			v.destroySnapLocked(s)
			return nil
		}
	}
	return fmt.Errorf("%w: snapshot %s", ErrNotFound, name)
}

// GarbageCollect implements Squirrel's retention policy (§3.4): destroy
// every snapshot older than the window ending at now, except the latest
// snapshot, which is always kept regardless of age. It returns the names
// of destroyed snapshots. Squirrel runs this as a daily cron job on all
// cVolumes; window is the paper's configurable n days.
func (v *Volume) GarbageCollect(now time.Time, window time.Duration) []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.snaps) == 0 {
		return nil
	}
	cutoff := now.Add(-window)
	latest := v.snaps[len(v.snaps)-1]
	var kept []*Snapshot
	var destroyed []string
	for _, s := range v.snaps {
		if s == latest || !s.Created.Before(cutoff) {
			kept = append(kept, s)
			continue
		}
		destroyed = append(destroyed, s.Name)
		v.destroySnapLocked(s)
	}
	v.snaps = kept
	return destroyed
}

// ReadObjectAt returns the content of an object as captured by a snapshot,
// which may differ from (or be absent in) the live table.
func (v *Volume) ReadObjectAt(snapName, objName string) ([]byte, error) {
	v.mu.RLock()
	s := v.findSnapLocked(snapName)
	v.mu.RUnlock()
	if s == nil {
		return nil, fmt.Errorf("%w: snapshot %s", ErrNotFound, snapName)
	}
	obj, ok := s.objects[objName]
	if !ok {
		return nil, fmt.Errorf("%w: object %s in snapshot %s", ErrNotFound, objName, snapName)
	}
	return v.materialize(obj)
}
