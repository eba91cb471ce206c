package core

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/zvol"
)

// stagedDelivery builds a one-replica deployment holding one clean
// registration, commits a second image on the storage side only, and
// returns its shipment and the replica's still-unsettled leg. Every
// transfer verdict the deployment draws from here on is kind (a cut for
// Partition), at most one crash, and the repair budget is one attempt.
func stagedDelivery(t *testing.T, kind fault.Kind) (*Squirrel, *cluster.Cluster, *shipment, *legResult) {
	t.Helper()
	plan := fault.Plan{Seed: 7, MaxCrashes: 1}
	switch kind {
	case fault.Drop:
		plan.Drop = 1
	case fault.Truncate:
		plan.Truncate = 1
	case fault.Corrupt:
		plan.Corrupt = 1
	case fault.Crash:
		plan.Crash = 1
	case fault.Torn:
		plan.Torn = 1
	}
	sq, cl, repo, _ := testDeployment(t, 1, withPeers, withFaults(fault.Plan{Seed: 7}), func(s *setup) {
		s.Repair.MaxAttempts = 1
	})
	mustRegister(t, sq, repo.Images[0], day(0))
	setFaults(sq, plan, t)
	sh, legs, _, err := sq.commit(context.Background(), repo.Images[1], day(1))
	if err != nil || len(legs) != 1 {
		t.Fatalf("commit: %d legs, %v", len(legs), err)
	}
	// Cut after the commit, as a cut that opens mid-registration would
	// be: the leg is already queued.
	if kind == fault.Partition {
		if err := sq.PartitionNodes(legs[0].r.node.ID); err != nil {
			t.Fatal(err)
		}
	}
	return sq, cl, sh, &legs[0]
}

func TestDeliveryStepIsTheSameAtEveryAttempt(t *testing.T) {
	// A verdict means the same thing whichever attempt drew it. Twin
	// deployments stage the same registration; on one the replica's
	// attempt-0 verdict (drawn by the one-to-many transfer) goes to the
	// delivery step, on the other the repair loop draws the same kind at
	// attempt 1 and hands it to the same step. Replica, node and leg must
	// end up identical; only the retry accounting may tell them apart.
	type outcome struct {
		Snapshots     []string
		Stats         zvol.Stats
		NeedsRecovery bool
		Online        bool
		Lagging       bool

		Synced, Crashed, Torn, LegLagging bool
		Faults                            int
	}
	observe := func(sq *Squirrel, leg *legResult) outcome {
		ccv := sq.ccVolume(leg.r)
		o := outcome{Stats: ccv.Stats(), NeedsRecovery: ccv.NeedsRecovery(),
			Online: sq.isOnline(leg.r), Lagging: slices.Contains(sq.Lagging(), leg.r.node.ID),
			Synced: leg.synced, Crashed: leg.crashed, Torn: leg.torn, LegLagging: leg.lagging,
			Faults: leg.faults}
		for _, snap := range ccv.Snapshots() {
			o.Snapshots = append(o.Snapshots, snap.Name)
		}
		return o
	}
	for _, tc := range []struct {
		kind fault.Kind
		// what the verdict must do to the leg
		synced, crashed, torn, lagging bool
	}{
		{kind: fault.None, synced: true},
		{kind: fault.Drop},
		{kind: fault.Truncate},
		{kind: fault.Corrupt},
		{kind: fault.Crash, crashed: true},
		{kind: fault.Torn, torn: true},
		{kind: fault.Partition, lagging: true},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			// Attempt 0: the verdict cluster.MulticastStream pre-draws.
			sq0, cl0, sh0, leg0 := stagedDelivery(t, tc.kind)
			deliv, _ := cl0.MulticastStream(sh0.op, cl0.Storage[0], []*cluster.Node{leg0.r.node}, sh0.wire, sh0.inj)
			if deliv[0].Fault != tc.kind {
				t.Fatalf("attempt 0 drew %s", deliv[0].Fault)
			}
			leg0.r.mu.Lock()
			settled := sq0.deliver(sh0, leg0, nil, deliv[0].Fault, deliv[0].Wire)
			leg0.r.mu.Unlock()
			first := observe(sq0, leg0)

			// Attempt 1: the verdict repair draws, budget of one.
			sq1, _, sh1, leg1 := stagedDelivery(t, tc.kind)
			leg1.r.mu.Lock()
			sq1.repair(sh1, leg1)
			leg1.r.mu.Unlock()
			retry := observe(sq1, leg1)

			if !reflect.DeepEqual(first, retry) {
				t.Fatalf("the same verdict ended differently:\n  attempt 0: %+v\n  attempt 1: %+v", first, retry)
			}
			want := outcome{Synced: tc.synced, Crashed: tc.crashed, Torn: tc.torn, LegLagging: tc.lagging}
			got := outcome{Synced: first.Synced, Crashed: first.Crashed, Torn: first.Torn, LegLagging: first.LegLagging}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("leg outcome %+v, want %+v", got, want)
			}
			if wantSettled := tc.synced || tc.crashed || tc.torn || tc.lagging; settled != wantSettled {
				t.Fatalf("delivery step reported settled=%v, want %v", settled, wantSettled)
			}
			wantFaults, wantSnaps := 1, 1
			if tc.kind == fault.None {
				wantFaults, wantSnaps = 0, 2
			}
			if first.Faults != wantFaults {
				t.Fatalf("leg counted %d faults, want %d", first.Faults, wantFaults)
			}
			// Replica and node, spelled out per verdict.
			if len(first.Snapshots) != wantSnaps || first.NeedsRecovery != tc.torn ||
				first.Online != !(tc.crashed || tc.torn) ||
				first.Lagging != (tc.crashed || tc.torn || tc.lagging) {
				t.Fatalf("replica/node state after %s: %+v", tc.kind, first)
			}
			// The retry accounting is the whole difference: the leg itself
			// is charged nothing, and a repair one attempt — unless a cut
			// stops it before the draw.
			if leg0.retries != 0 || leg0.repairBytes != 0 || leg0.repairSec != 0 {
				t.Fatalf("attempt 0 charged retry accounting: %+v", leg0)
			}
			wantRetries := 1
			if tc.kind == fault.Partition {
				wantRetries = 0
			}
			if leg1.retries != wantRetries {
				t.Fatalf("repair charged %d retries, want %d", leg1.retries, wantRetries)
			}
		})
	}
}
