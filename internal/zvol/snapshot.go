package zvol

import (
	"fmt"
	"slices"
	"time"
)

// Snapshot creates a named, immutable view of the volume's current object
// table at the given time. The snapshot lists every object now on the
// live table, so deleting live objects cannot free data a snapshot still
// needs — the property that makes ZFS snapshots "cheap as long as they do
// not reference data that no longer exists" (§3.2). Cost is one stamp,
// whatever the volume holds: no object, block pointer or DDT entry is
// touched.
//
// The timestamp is injected (not read from the wall clock) so garbage
// collection windows are testable and simulations are deterministic.
func (v *Volume) Snapshot(name string, at time.Time) (*Snapshot, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.snapByName[name] != nil {
		return nil, fmt.Errorf("%w: %s", ErrSnapExists, name)
	}
	return v.snapshotLocked(name, at), nil
}

// snapshotLocked closes the open transaction group as snapshot name:
// Snapshot and the commit of a receive both end here.
func (v *Volume) snapshotLocked(name string, at time.Time) *Snapshot {
	s := &Snapshot{Name: name, Created: at, txg: v.txg, ptrs: v.livePtrs, vol: v}
	v.txg++
	v.snaps = append(v.snaps, s)
	v.snapByName[name] = s
	v.snapPtrs += s.ptrs
	return s
}

// destroySnapLocked takes snapshot i off the volume — DeleteSnapshot and
// GarbageCollect both end here — and releases the objects only it still
// listed. Those are dead, born after the snapshot before it and dead by
// the one after it: a range of the held list bounded by the two
// neighbours' stamps. (A held object born in that range is live or died
// after i was taken; had it died sooner, no snapshot would have listed
// it and its death would have released it.)
func (v *Volume) destroySnapLocked(i int) {
	s := v.snaps[i]
	var prev uint64
	next := v.txg // no death is stamped later than the open group
	if i > 0 {
		prev = v.snaps[i-1].txg
	}
	if i+1 < len(v.snaps) {
		next = v.snaps[i+1].txg
	}
	v.snaps = slices.Delete(v.snaps, i, i+1)
	delete(v.snapByName, s.Name)
	v.snapPtrs -= s.ptrs

	lo, hi := v.bornThroughLocked(prev), v.bornThroughLocked(s.txg)
	keep := lo
	for _, o := range v.held[lo:hi] {
		if o.died != 0 && o.died <= next {
			v.releasePtrsLocked(o.ptrs)
			continue
		}
		v.held[keep] = o
		keep++
	}
	v.held = slices.Delete(v.held, keep, hi)
}

// HasSnapshot reports whether the volume holds a snapshot named name.
// It allocates nothing: a registration asks it of every replica, and
// the answer is usually no.
func (v *Volume) HasSnapshot(name string) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.snapByName[name] != nil
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
	s := v.snapByName[name]
	if s == nil {
		return fmt.Errorf("%w: snapshot %s", ErrNotFound, name)
	}
	v.destroySnapLocked(slices.Index(v.snaps, s))
	return nil
}

// GarbageCollect implements Squirrel's retention policy (§3.4): destroy
// every snapshot older than the window ending at now, except the latest
// snapshot, which is always kept regardless of age. It returns the names
// of destroyed snapshots. Squirrel runs this as a daily cron job on all
// cVolumes; window is the paper's configurable n days.
func (v *Volume) GarbageCollect(now time.Time, window time.Duration) []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	cutoff := now.Add(-window)
	var destroyed []string
	for i := 0; i < len(v.snaps)-1; { // the latest always stays
		if s := v.snaps[i]; s.Created.Before(cutoff) {
			destroyed = append(destroyed, s.Name)
			v.destroySnapLocked(i)
		} else {
			i++
		}
	}
	return destroyed
}

// ReadObjectAt returns the content of an object as captured by a snapshot,
// which may differ from (or be absent in) the live table.
func (v *Volume) ReadObjectAt(snapName, objName string) ([]byte, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	s := v.snapByName[snapName]
	var obj *Object
	if s != nil {
		listable := v.held[:v.bornThroughLocked(s.txg)]
		if i := slices.IndexFunc(listable, func(o *Object) bool { return o.Name == objName && s.lists(o) }); i >= 0 {
			obj = listable[i]
		}
	}
	if s == nil {
		return nil, fmt.Errorf("%w: snapshot %s", ErrNotFound, snapName)
	}
	if obj == nil {
		return nil, fmt.Errorf("%w: object %s in snapshot %s", ErrNotFound, objName, snapName)
	}
	return v.materialize(obj)
}
