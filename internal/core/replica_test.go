package core

import (
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"
)

func TestEveryNodeTakingMethodRejectsUnknownNode(t *testing.T) {
	sq, _, repo := peerDeployment(t, 2)
	im := repo.Images[0]
	mustRegister(t, sq, im, day(0))
	type observed struct {
		Health  []NodeStatus
		Stats   DeploymentStats
		Holders []string
	}
	observe := func() observed { return observed{sq.Health(), sq.Stats(), sq.IndexHolders(im.ID, "")} }
	before := observe()
	for _, tc := range []struct {
		method string
		call   func() error
	}{
		{"Boot", func() error { _, err := sq.Boot(bg, BootRequest{Image: im.ID, Node: "ghost"}); return err }},
		{"SyncNode", func() error { _, err := sq.SyncNode(bg, "ghost"); return err }},
		{"SetOnline", func() error { return sq.SetOnline("ghost", false) }},
		{"DropReplica", func() error { return sq.DropReplica("ghost", im.ID) }},
		{"CrashNode", func() error { return sq.CrashNode("ghost", day(1)) }},
		{"RestartNode", func() error { _, err := sq.RestartNode("ghost", day(1)); return err }},
		{"InjectRot", func() error { _, err := sq.InjectRot("ghost"); return err }},
		{"ScrubNode", func() error { _, err := sq.ScrubNode(bg, "ghost", day(1)); return err }},
		{"ResilverNode", func() error { _, err := sq.ResilverNode(bg, "ghost", day(1)); return err }},
		{"CCVolume", func() error { _, err := sq.CCVolume("ghost"); return err }},
		// A known node named beside the unknown one must not be cut off.
		{"PartitionNodes", func() error { return sq.PartitionNodes("node00", "ghost") }},
	} {
		if err := tc.call(); !errors.Is(err, ErrUnknownNode) {
			t.Errorf("%s of an unknown node: want ErrUnknownNode, got %v", tc.method, err)
		}
		if after := observe(); !reflect.DeepEqual(after, before) {
			t.Errorf("%s of an unknown node changed the deployment:\n before %+v\n after  %+v", tc.method, before, after)
		}
	}
}

func TestOfflineReplicaNotReannounced(t *testing.T) {
	// A replica that went down after its registration leg applied is still
	// on the merge's list of synced replicas. The announce guard, not the
	// caller, must keep it out of the index. (Central index only: a gossip
	// lookup keeps serving a crashed holder's lease until its TTL whether
	// or not anything re-announces it, so that arm would prove nothing.)
	sq, _, repo := peerDeployment(t, 4)
	im := repo.Images[0]
	mustRegister(t, sq, im, day(0))
	if err := sq.CrashNode("node01", day(0)); err != nil {
		t.Fatal(err)
	}
	sq.state.Lock()
	sq.announceImageLocked(sq.replicas["node01"], im.ID)
	sq.state.Unlock()
	if got := sq.IndexHolders(im.ID, ""); slices.Contains(got, "node01") {
		t.Fatalf("crashed node01 was announced again: holders %v", got)
	}
}

// stalledReader holds whoever reads it until release closes, then fails
// the read.
type stalledReader struct{ reading, release chan struct{} }

func (r stalledReader) Read([]byte) (int, error) {
	close(r.reading)
	<-r.release
	return 0, errors.New("released")
}

func TestBootNotBlockedByOtherNodesGC(t *testing.T) {
	// Snapshot GC on a replica can wait on its volume; it must do so
	// holding that node's lock only, never state — every boot in the
	// deployment reads state.
	sq, _, repo := deployment(t, 2)
	im := repo.Images[0]
	mustRegister(t, sq, im, day(0))
	// WriteObject reads under the volume's lock: node00's volume stays
	// write-locked until the reader is released.
	node00 := sq.replicas["node00"]
	hold := stalledReader{make(chan struct{}), make(chan struct{})}
	written := make(chan struct{})
	go func() {
		defer close(written)
		node00.ccv.WriteObject("hold", hold)
	}()
	<-hold.reading
	gc := make(chan struct{})
	go func() {
		defer close(gc)
		sq.GarbageCollect(day(30))
	}()
	// GC visits node00 first; once it holds the node lock it is at (or a
	// few instructions from) the stalled volume.
	for node00.mu.TryLock() {
		node00.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	booted := make(chan error, 1)
	go func() {
		_, err := sq.Boot(bg, BootRequest{Image: im.ID, Node: "node01"})
		booted <- err
	}()
	select {
	case err := <-booted:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(time.Second):
		t.Error("a boot on node01 waited behind node00's volume GC")
		defer func() { <-booted }()
	}
	close(hold.release)
	<-written
	<-gc
}
