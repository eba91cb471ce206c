package core

import (
	"testing"
)

func TestDeploymentStats(t *testing.T) {
	sq, _, repo, _ := testDeployment(t, 3)
	ds := sq.Stats()
	if ds.ComputeNodes != 3 || ds.OnlineNodes != 3 || ds.RegisteredImages != 0 {
		t.Fatalf("empty deployment stats: %+v", ds)
	}
	if ds.StaleReplicas != 0 {
		t.Fatalf("no snapshots yet, nobody stale: %+v", ds)
	}

	mustRegister(t, sq, repo.Images[0], day(0))
	sq.SetOnline("node02", false)
	mustRegister(t, sq, repo.Images[1], day(1))
	sq.SetOnline("node02", true)

	ds = sq.Stats()
	if ds.RegisteredImages != 2 {
		t.Fatalf("registered %d", ds.RegisteredImages)
	}
	if ds.StaleReplicas != 1 {
		t.Fatalf("node02 should be stale: %+v", ds)
	}
	if ds.ReplicaDiskBytes <= 0 || ds.ReplicaMemBytes <= 0 {
		t.Fatalf("replica cost missing: %+v", ds)
	}
	if ds.SCVolume.Objects != 2 {
		t.Fatalf("scVolume objects %d", ds.SCVolume.Objects)
	}

	// After the sync, no replica is stale.
	if _, err := sq.SyncNode(bg, "node02"); err != nil {
		t.Fatal(err)
	}
	if ds = sq.Stats(); ds.StaleReplicas != 0 {
		t.Fatalf("sync did not clear staleness: %+v", ds)
	}
}
