// Receive journaling: crash consistency for stream application. The
// paper's compute nodes inherit crash safety from ZFS (`zfs recv` aborts
// leave no partial dataset); our in-memory model needs the same property
// when the simulator kills a node mid-apply. Receive therefore runs as a
// journaled transaction: an intent record opens before the first
// mutation, every staged step appends its undo record, and the final
// commit (reference releases + snapshot creation + journal clear) is
// atomic. A crash between intent and commit leaves the journal open;
// Recover replays the undo log backwards and the dataset is bit-identical
// to its pre-receive state.
package zvol

// undoRec reverses one staged apply step.
type undoRec struct {
	upsert  bool
	name    string
	staged  *Object // object created by an upsert (released on undo)
	old     *Object // object displaced by the step (restored on undo)
	logical int64   // logicalWritten delta to reverse
	zeros   int64   // zeroBytes delta to reverse
}

// receiveJournal is the intent record of one in-flight Receive plus the
// undo log of its staged steps. A non-nil journal on a volume means a
// torn apply: the last receive crashed between intent and commit.
type receiveJournal struct {
	fromSnap, toSnap string
	steps            int // staged steps completed
	undo             []undoRec
}

// SetReceiveCrashPoint arms a one-shot crash for the next Receive: the
// apply dies after n staged steps (0 = right after the intent record,
// len(Upserts)+len(Deletes) = everything staged but nothing committed),
// returning ErrTorn with the journal left open. This is the injection
// point for the torn-apply fault lane and the crash-offset property
// tests.
func (v *Volume) SetReceiveCrashPoint(n int) {
	v.mu.Lock()
	v.crashPoint = n
	v.armed = true
	v.mu.Unlock()
}

// NeedsRecovery reports whether a torn receive left an open journal.
func (v *Volume) NeedsRecovery() bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.journal != nil
}

// RecoverReport describes one restart-time journal recovery.
type RecoverReport struct {
	RolledBack    bool   // an open journal was found and rolled back
	Snapshot      string // the torn stream's target snapshot name
	UndoneUpserts int
	UndoneDeletes int
}

// Recover is the restart-time audit: if the last Receive was torn by a
// crash, its staged steps are undone in reverse order and the journal is
// cleared, restoring the dataset to its exact pre-receive state (the
// torn snapshot was never created, so the node simply looks like it
// missed the registration and heals through SyncNode). With no open
// journal Recover is a no-op.
func (v *Volume) Recover() RecoverReport {
	v.mu.Lock()
	defer v.mu.Unlock()
	j := v.journal
	if j == nil {
		return RecoverReport{}
	}
	rep := RecoverReport{RolledBack: true, Snapshot: j.toSnap}
	for i := len(j.undo) - 1; i >= 0; i-- {
		rec := j.undo[i]
		if rec.upsert {
			// The staged object was only ever on the live table (the
			// snapshot comes with the commit), so no stamp lists it: it
			// leaves the held list and drops its one set of block
			// references. A displaced object dies only at commit, so it
			// goes back as it was, still live.
			v.unholdLocked(rec.staged)
			v.releasePtrsLocked(rec.staged.ptrs)
			v.setObjectLocked(rec.name, rec.old) // nil when the upsert created the name
			v.logicalWritten -= rec.logical
			v.zeroBytes -= rec.zeros
			rep.UndoneUpserts++
		} else {
			v.setObjectLocked(rec.name, rec.old)
			rep.UndoneDeletes++
		}
	}
	v.journal = nil
	v.counters.Add("zvol.rollback", 1)
	return rep
}
