package core

import (
	"context"
	"errors"
	"os"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/fault"
	"repro/internal/gossip"
	"repro/internal/obs"
	"repro/internal/peer"
	"repro/internal/zvol"
)

// soakRing sizes the telemetry ring every lifecycle scenario traces
// into, next to a seeded fault plan and the peer exchange (the
// resilver's source ladder and the withdrawal invariant need it): the
// chaos soak asserts no traced operation ends in an unrecovered error
// state. The ring is sized far beyond any soak's op count — the
// failed-roots gate is only as strong as the ring is deep, so eviction
// must never hide a failed root (the always-on default is deliberately
// small).
const soakRing = 8192

func nodeStatus(t *testing.T, sq *Squirrel, nodeID string) NodeStatus {
	t.Helper()
	for _, st := range sq.Health() {
		if st.NodeID == nodeID {
			return st
		}
	}
	t.Fatalf("node %s missing from Health()", nodeID)
	return NodeStatus{}
}

func TestCrashRestartLifecycle(t *testing.T) {
	sq, _, repo, _ := testDeployment(t, 3, withPeers, withFaults(fault.Plan{Seed: 1}), withTracing(soakRing))
	for i := 0; i < 2; i++ {
		mustRegister(t, sq, repo.Images[i], day(i))
	}
	if err := sq.CrashNode("node01", day(2)); err != nil {
		t.Fatal(err)
	}
	st := nodeStatus(t, sq, "node01")
	if st.State != StateDown || !st.Withdrawn || st.DownSince != day(2) {
		t.Fatalf("crashed node health: %+v", st)
	}
	if _, err := sq.Boot(context.Background(), BootRequest{Image: repo.Images[0].ID, Node: "node01", Verify: false}); !errors.Is(err, ErrNodeOffline) {
		t.Fatalf("crashed node accepted a boot: %v", err)
	}
	// A registration while the node is down skips it entirely.
	rep, err := sq.Register(context.Background(), RegisterRequest{Image: repo.Images[2], At: day(2)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Nodes != 2 || rep.Faults != 0 {
		t.Fatalf("down node not skipped: %+v", rep)
	}
	// Restart: the audit finds a clean but stale replica.
	rec, err := sq.RestartNode("node01", day(3))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Downtime != 24*time.Hour {
		t.Fatalf("downtime %v, want 24h", rec.Downtime)
	}
	if rec.RolledBack || rec.Damaged != 0 || !rec.Scrub.Clean() {
		t.Fatalf("clean crash audited dirty: %+v", rec)
	}
	if !rec.Lagging {
		t.Fatal("node missed a registration while down; audit must flag lagging")
	}
	if st := nodeStatus(t, sq, "node01"); st.State != StateLagging || st.LastScrub != day(3) {
		t.Fatalf("restarted node health: %+v", st)
	}
	// First boot heals, as for any lagging node.
	br, err := sq.Boot(context.Background(), BootRequest{Image: repo.Images[2].ID, Node: "node01", Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !br.Healed || !br.Warm {
		t.Fatalf("restart boot should heal and go warm: %+v", br)
	}
	if st := nodeStatus(t, sq, "node01"); st.State != StateHealthy || st.Withdrawn {
		t.Fatalf("healed node health: %+v", st)
	}
}

func TestTornRegistrationRollsBackOnRestart(t *testing.T) {
	// Bring the deployment up clean, then make the fabric tear exactly one
	// apply (Torn shares the crash budget).
	sq, _, repo, _ := testDeployment(t, 3, withPeers, withFaults(fault.Plan{Seed: 4}), withTracing(soakRing))
	mustRegister(t, sq, repo.Images[0], day(0))
	firstSnap := sq.SCVolume().LatestSnapshot().Name
	setFaults(sq, fault.Plan{Seed: 4, Torn: 1, MaxCrashes: 1}, t)
	rep, err := sq.Register(context.Background(), RegisterRequest{Image: repo.Images[1], At: day(1)})
	if err != nil {
		t.Fatalf("torn replicas must not fail the registration: %v", err)
	}
	if len(rep.Torn) != 1 {
		t.Fatalf("want exactly one torn apply, got %+v", rep)
	}
	torn := rep.Torn[0]
	ccv, _ := sq.CCVolume(torn)
	if !ccv.NeedsRecovery() {
		t.Fatal("torn node has no open receive journal")
	}
	if st := nodeStatus(t, sq, torn); st.State != StateDown || !st.Withdrawn {
		t.Fatalf("torn node health: %+v", st)
	}
	// The restart audit rolls the half-applied stream back: the replica is
	// bit-identical to before the registration (old snapshot, old objects,
	// clean scrub) and flagged lagging so sync re-delivers the stream.
	rec, err := sq.RestartNode(torn, day(1).Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if !rec.RolledBack || rec.RolledBackSnap != rep.Snapshot {
		t.Fatalf("audit did not roll back the torn stream: %+v", rec)
	}
	if !rec.Scrub.Clean() {
		t.Fatalf("rolled-back replica scrubbed dirty: %+v", rec.Scrub)
	}
	if snap := ccv.LatestSnapshot(); snap == nil || snap.Name != firstSnap {
		t.Fatalf("rollback should leave the node at %s", firstSnap)
	}
	if ccv.HasObject(repo.Images[1].ID) {
		t.Fatal("half-applied object survived the rollback")
	}
	// Healing delivers the registration it missed; the boot verifies every
	// byte end to end.
	br, err := sq.Boot(context.Background(), BootRequest{Image: repo.Images[1].ID, Node: torn, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !br.Healed || !br.Warm {
		t.Fatalf("torn node should heal on first boot: %+v", br)
	}
}

func TestInjectRotIsDeterministicAndScrubDetectsAll(t *testing.T) {
	plan := fault.Plan{Seed: 42, Rot: 0.4}
	mk := func() (*Squirrel, []zvol.BlockRef) {
		sq, _, repo, _ := testDeployment(t, 3, withPeers, withFaults(plan), withTracing(soakRing))
		for i := 0; i < 3; i++ {
			mustRegister(t, sq, repo.Images[i], day(i))
		}
		refs, err := sq.InjectRot("node01")
		if err != nil {
			t.Fatal(err)
		}
		return sq, refs
	}
	sq, refs := mk()
	if len(refs) == 0 {
		t.Fatal("rot plan injected nothing")
	}
	// Same plan, same history ⇒ identical rot set on a twin deployment.
	_, refs2 := mk()
	if len(refs) != len(refs2) {
		t.Fatalf("rot not deterministic: %d vs %d blocks", len(refs), len(refs2))
	}
	for i := range refs {
		if refs[i] != refs2[i] {
			t.Fatalf("rot not deterministic at %d: %+v vs %+v", i, refs[i], refs2[i])
		}
	}
	// 100% detection: the scrub reports every injected ref (dedup aliases
	// of a rotted payload may appear in addition).
	rep, err := sq.ScrubNode(bg, "node01", day(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("scrub missed all injected rot")
	}
	found := map[zvol.BlockRef]bool{}
	for _, r := range rep.Damaged {
		found[r] = true
	}
	for _, r := range refs {
		if !found[r] {
			t.Fatalf("scrub missed injected corruption at %+v", r)
		}
	}
	// The damaged node is quarantined: withdrawn from the peer index and
	// reported resilvering; other nodes are untouched.
	if st := nodeStatus(t, sq, "node01"); st.State != StateResilvering || !st.Withdrawn ||
		st.CorruptBlocks != len(rep.Damaged) {
		t.Fatalf("rotten node health: %+v", st)
	}
	if st := nodeStatus(t, sq, "node02"); st.State != StateHealthy || st.Withdrawn {
		t.Fatalf("healthy node health: %+v", st)
	}
	if ds := sq.Stats(); ds.DamagedNodes != 1 {
		t.Fatalf("stats damaged nodes: %+v", ds.DamagedNodes)
	}
}

func TestResilverPrefersPeersOverPFS(t *testing.T) {
	sq, cl, repo, _ := testDeployment(t, 4, withPeers, withFaults(fault.Plan{Seed: 7, Rot: 0.4}), withTracing(soakRing))
	im := repo.Images[0]
	mustRegister(t, sq, im, day(0))
	refs, err := sq.InjectRot("node02")
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) == 0 {
		t.Fatal("rot plan injected nothing")
	}
	pfsTx := storageTx(cl)
	rep, err := sq.ResilverNode(bg, "node02", day(1))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean || rep.Failed != 0 || rep.Repaired != rep.Blocks || rep.Blocks == 0 {
		t.Fatalf("resilver did not fully repair: %+v", rep)
	}
	// Healthy replicas exist on three other nodes: every repair must come
	// from a peer, none from the PFS.
	if rep.PFSBlocks != 0 || rep.PeerBlocks != rep.Repaired || rep.PeerBytes == 0 {
		t.Fatalf("resilver ignored healthy peers: %+v", rep)
	}
	if tx := storageTx(cl); tx != pfsTx {
		t.Fatalf("peer-sourced resilver moved %d bytes off storage nodes", tx-pfsTx)
	}
	// The repaired node rejoins the exchange and boots warm and verified.
	if !indexHolds(sq, im.ID, "node02") {
		t.Fatal("clean node not re-announced")
	}
	br, err := sq.Boot(context.Background(), BootRequest{Image: im.ID, Node: "node02", Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !br.Warm {
		t.Fatalf("repaired replica should boot warm: %+v", br)
	}
}

func TestResilverFallsBackToPFSWhenNoHealthyPeer(t *testing.T) {
	// Two compute nodes, both rotten: the first resilver has no healthy
	// peer and must repair from the PFS; the second then has a healthy
	// peer again and must prefer it.
	sq, _, repo, _ := testDeployment(t, 2, withPeers, withFaults(fault.Plan{Seed: 11, Rot: 0.6}), withTracing(soakRing))
	im := repo.Images[0]
	mustRegister(t, sq, im, day(0))
	for _, n := range []string{"node00", "node01"} {
		refs, err := sq.InjectRot(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(refs) == 0 {
			t.Fatalf("rot plan injected nothing on %s", n)
		}
		if _, err := sq.ScrubNode(bg, n, day(1)); err != nil {
			t.Fatal(err)
		}
	}
	rep0, err := sq.ResilverNode(bg, "node00", day(1))
	if err != nil {
		t.Fatal(err)
	}
	if !rep0.Clean || rep0.PeerBlocks != 0 || rep0.PFSBlocks != rep0.Repaired || rep0.Repaired == 0 {
		t.Fatalf("with every peer damaged the PFS must repair: %+v", rep0)
	}
	rep1, err := sq.ResilverNode(bg, "node01", day(1))
	if err != nil {
		t.Fatal(err)
	}
	if !rep1.Clean || rep1.PFSBlocks != 0 || rep1.PeerBlocks != rep1.Repaired || rep1.Repaired == 0 {
		t.Fatalf("freshly-repaired peer should serve the second resilver: %+v", rep1)
	}
	if ds := sq.Stats(); ds.DamagedNodes != 0 {
		t.Fatalf("damage survived resilvering: %+v", ds)
	}
}

// byteRange is a half-open byte range of a cache object.
type byteRange struct{ off, n int64 }

func (r byteRange) overlaps(o byteRange) bool { return r.off < o.off+o.n && o.off < r.off+r.n }

// coldFetchRanges lists, in issue order, the cache-object range of every
// peer fetch a cold boot of im makes: the boot reads each cache extent
// once, in offset order, the overlay faults in each cluster under a read whole, and the chain
// backend asks the peer exchange for every piece of a cluster that lies
// inside a cache extent. One peerFetch span is recorded per entry.
func coldFetchRanges(im *corpus.Image, cluster int64) []byteRange {
	lay := im.Layout()
	var out []byteRange
	for _, e := range lay.Ext {
		for lo := e.Off - e.Off%cluster; lo < e.Off+e.Len; lo += cluster {
			hi := min(lo+cluster, im.RawSize())
			for i := lay.Find(lo); i < len(lay.Ext) && lay.Ext[i].Off < hi; i++ {
				x := lay.Ext[i]
				a, b := max(lo, x.Off), min(hi, x.Off+x.Len)
				out = append(out, byteRange{lay.Base[i] + a - x.Off, b - a})
			}
		}
	}
	return out
}

// rottedRanges returns the cache-object byte ranges of obj's damaged
// blocks on nodeID: the blocks InjectRot reported plus whatever else a
// scrub of the volume finds (dedup aliases of a rotted payload).
func rottedRanges(t *testing.T, sq *Squirrel, nodeID, obj string, refs []zvol.BlockRef) []byteRange {
	t.Helper()
	ccv, err := sq.CCVolume(nodeID)
	if err != nil {
		t.Fatal(err)
	}
	infos, err := ccv.BlockInfos(obj)
	if err != nil {
		t.Fatal(err)
	}
	starts := make([]int64, len(infos))
	for i := 1; i < len(infos); i++ {
		starts[i] = starts[i-1] + int64(infos[i-1].LogLen)
	}
	var out []byteRange
	for _, ref := range slices.Concat(refs, ccv.Scrub().Damaged) {
		if ref.Object == obj {
			out = append(out, byteRange{starts[ref.Index], int64(infos[ref.Index].LogLen)})
		}
	}
	if len(out) == 0 {
		t.Fatalf("rot plan left %s on %s intact", obj, nodeID)
	}
	return out
}

// checkRottenHolderFetches pairs the last boot's peerFetch spans with
// the ranges they fetched and asserts per-range verification on
// rotten: a range overlapping one of its rotted blocks was never served
// by it, a range clear of them was served by a peer. It returns the
// bytes rotten served and the bytes the peer path gave up on.
func checkRottenHolderFetches(t *testing.T, sq *Squirrel, im *corpus.Image, rotten string, rot []byteRange) (fromRotten, fellBack int64) {
	t.Helper()
	sp := lastTree(sq.Telemetry(), obs.OpBoot)
	fetches := childrenOf(sp, obs.OpPeerFetch)
	ranges := coldFetchRanges(im, 4096)
	if len(fetches) != len(ranges) {
		t.Fatalf("%d peerFetch spans for %d fetch ranges:\n%s", len(fetches), len(ranges), obs.RenderDump(sp))
	}
	for i, r := range ranges {
		src, hitRot := fetches[i].Node, false
		for _, bad := range rot {
			hitRot = hitRot || r.overlaps(bad)
		}
		switch {
		case hitRot && src == rotten:
			t.Fatalf("range %+v overlaps a rotted block yet %s served it:\n%s", r, rotten, obs.RenderDump(sp))
		case !hitRot && src == "":
			t.Fatalf("range %+v is clear of rot yet no peer served it:\n%s", r, obs.RenderDump(sp))
		case src == rotten:
			fromRotten += r.n
		case src == "":
			fellBack += r.n
		}
	}
	return fromRotten, fellBack
}

func TestRottenPeerNeverServesBadBytes(t *testing.T) {
	// Latent (unscrubbed) rot on the only peer holder. Verification is
	// per range, as in ZFS: every range overlapping a rotted block fails
	// its checksum at the source and falls back to the PFS, the holder's
	// intact blocks are still served, and the verified boot proves not one
	// corrupt byte reached the VM.
	sq, _, repo, _ := testDeployment(t, 2, withPeers, withFaults(fault.Plan{Seed: 13, Rot: 0.5}), withTracing(soakRing))
	im := repo.Images[0]
	mustRegister(t, sq, im, day(0))
	refs, err := sq.InjectRot("node01")
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) == 0 {
		t.Fatal("rot plan injected nothing")
	}
	rot := rottedRanges(t, sq, "node01", im.ID, refs)
	if err := sq.DropReplica("node00", im.ID); err != nil {
		t.Fatal(err)
	}
	if !indexHolds(sq, im.ID, "node01") {
		t.Fatal("latent rot must not be withdrawn yet (nothing detected it)")
	}
	br, err := sq.Boot(context.Background(), BootRequest{Image: im.ID, Node: "node00", Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	fromRotten, fellBack := checkRottenHolderFetches(t, sq, im, "node01", rot)
	if fellBack == 0 || br.NetworkBytes < fellBack {
		t.Fatalf("rotted ranges (%d bytes) should have fallen back to the PFS: %+v", fellBack, br)
	}
	if br.PeerBytes != fromRotten {
		t.Fatalf("report says %d peer bytes, spans say %d", br.PeerBytes, fromRotten)
	}
	if c := sq.PeerCounters().Snapshot(); c["peer.stale"] == 0 {
		t.Fatalf("source-side checksum failure not accounted: %v", c)
	}
}

func TestRottenRangeFailsOverToCleanHolder(t *testing.T) {
	// Two holders, one with latent rot: a range that fails its checksum on
	// the rotten holder is retried on the clean one within the same fetch,
	// so the peer exchange serves the whole boot, and each failed serve
	// feeds the rotten holder's circuit breaker.
	sq, _, repo, _ := testDeployment(t, 3, withPeers, withFaults(fault.Plan{Seed: 13, Rot: 0.5}), withTracing(64), func(s *setup) {
		s.Peer.Breaker = peer.BreakerPolicy{Threshold: 1}
	})
	im := repo.Images[0]
	mustRegister(t, sq, im, day(0))
	refs, err := sq.InjectRot("node01")
	if err != nil {
		t.Fatal(err)
	}
	rot := rottedRanges(t, sq, "node01", im.ID, refs)
	if err := sq.DropReplica("node00", im.ID); err != nil {
		t.Fatal(err)
	}
	br, err := sq.Boot(context.Background(), BootRequest{Image: im.ID, Node: "node00", Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, fellBack := checkRottenHolderFetches(t, sq, im, "node01", rot); fellBack != 0 || br.PeerFallbacks != 0 {
		t.Fatalf("%d bytes fell back to the PFS with a clean holder available: %+v", fellBack, br)
	}
	if br.PeerBytes != im.CacheSize() {
		t.Fatalf("peers served %d of the cache's %d bytes: %+v", br.PeerBytes, im.CacheSize(), br)
	}
	ctr := sq.PeerCounters()
	if ctr.Get("peer.stale") == 0 || ctr.Get("breaker.trip") == 0 || br.BreakerTrips == 0 {
		t.Fatalf("rotten holder's failed serves not accounted (trips %d): %s", br.BreakerTrips, ctr)
	}
	if sq.ledger.BreakerState("node02") != "closed" {
		t.Fatalf("clean holder's breaker is %s", sq.ledger.BreakerState("node02"))
	}
}

func TestLocalRotFallsThroughPerRange(t *testing.T) {
	// Latent (unscrubbed) rot in the booting node's OWN replica. The local
	// replica is rung zero of the source ladder and is verified per range
	// like every other rung: ranges clear of the rot are still served
	// locally, each range overlapping a rotted block fails its checksum
	// and continues down the ladder — to a peer, or to the PFS when the
	// peer exchange is off — and the verified boot proves no corrupt byte
	// reached the VM. Nothing is quarantined: only a scrub does that. A
	// warm boot first leaves every block the boot reads in zvol's
	// decoded-block cache, which must not serve a block that rotted since.
	for _, peers := range []bool{true, false} {
		t.Run(map[bool]string{true: "peer", false: "pfs"}[peers], func(t *testing.T) {
			sq, _, repo, _ := testDeployment(t, 2, withPeers, withFaults(fault.Plan{Seed: 13, Rot: 0.5}), func(s *setup) {
				s.Peer.Enabled = peers
			})
			im := repo.Images[0]
			mustRegister(t, sq, im, day(0))
			if br, err := sq.Boot(bg, BootRequest{Image: im.ID, Node: "node00", Verify: true}); err != nil || !br.Warm {
				t.Fatalf("boot before the rot: %+v, %v", br, err)
			}
			refs, err := sq.InjectRot("node00")
			if err != nil {
				t.Fatal(err)
			}
			rot := rottedRanges(t, sq, "node00", im.ID, refs)
			var intact, rotted, failed int64
			for _, r := range coldFetchRanges(im, 4096) {
				if slices.ContainsFunc(rot, r.overlaps) {
					rotted += r.n
					failed++
				} else {
					intact += r.n
				}
			}
			if intact == 0 || rotted == 0 {
				t.Fatalf("rot plan must leave both intact (%d) and rotted (%d) ranges", intact, rotted)
			}
			br, err := sq.Boot(bg, BootRequest{Image: im.ID, Node: "node00", Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			if br.CacheBytes != intact {
				t.Fatalf("local replica served %d bytes, its intact ranges hold %d: %+v", br.CacheBytes, intact, br)
			}
			wantPeer, wantPFS := rotted, br.ReadBytes-intact-rotted
			if !peers {
				wantPeer, wantPFS = 0, br.ReadBytes-intact
			}
			if br.PeerBytes != wantPeer || br.NetworkBytes != wantPFS {
				t.Fatalf("rotted ranges: want %d peer / %d PFS bytes: %+v", wantPeer, wantPFS, br)
			}
			if br.Warm || br.CacheBytes+br.PeerBytes+br.NetworkBytes != br.ReadBytes {
				t.Fatalf("provenance must cover the read without calling it warm: %+v", br)
			}
			if got := sq.PeerCounters().Get("boot.corrupt_local"); got != failed {
				t.Fatalf("boot.corrupt_local = %d, %d ranges overlap rot", got, failed)
			}
			if st := nodeStatus(t, sq, "node00"); st.State != StateHealthy || st.CorruptBlocks != 0 {
				t.Fatalf("a read must not quarantine the node, only a scrub does: %+v", st)
			}
		})
	}
}

func TestResilverRespectsPartition(t *testing.T) {
	// A repair read is a peer read: a holder the damaged node cannot reach
	// is not a holder. Behind an open cut the resilver moves nothing — no
	// peer bytes, no PFS bytes, every NIC counter in the cluster unchanged
	// — the blocks stay quarantined, and that is a report, not an error.
	// Once the cut heals the same call repairs everything from peers.
	for _, mode := range []IndexMode{IndexCentral, IndexGossip} {
		t.Run(mode.String(), func(t *testing.T) {
			sq, cl, repo, _ := testDeployment(t, 4, withPeers, withFaults(fault.Plan{Seed: 7, Rot: 0.4}),
				withIndex(mode), withGossip(gossip.Config{Seed: 7}))
			spread := func() {
				t.Helper()
				if mode == IndexGossip {
					if _, err := sq.GossipTicks(4); err != nil {
						t.Fatal(err)
					}
				}
			}
			im := repo.Images[0]
			mustRegister(t, sq, im, day(0))
			spread()
			if _, err := sq.InjectRot("node02"); err != nil {
				t.Fatal(err)
			}
			scrub, err := sq.ScrubNode(bg, "node02", day(1))
			if err != nil || scrub.Clean() {
				t.Fatalf("rot plan injected nothing (err %v)", err)
			}
			if err := sq.PartitionNodes("node02"); err != nil {
				t.Fatal(err)
			}
			spread()
			nics := func() (out []int64) {
				for _, n := range slices.Concat(cl.Storage, cl.Compute) {
					out = append(out, n.TxBytes(), n.RxBytes())
				}
				return out
			}
			before := nics()
			rep, err := sq.ResilverNode(bg, "node02", day(1))
			if err != nil {
				t.Fatalf("a stranded resilver must report, not fail: %v", err)
			}
			if rep.Blocks != len(scrub.Damaged) || rep.Failed != rep.Blocks || rep.Repaired != 0 ||
				rep.PeerBytes+rep.PFSBytes != 0 || rep.Clean {
				t.Fatalf("resilver across an open cut: %+v", rep)
			}
			if after := nics(); !slices.Equal(before, after) {
				t.Fatalf("bytes crossed the cut: NIC tx/rx %v -> %v", before, after)
			}
			if st := nodeStatus(t, sq, "node02"); st.CorruptBlocks != rep.Blocks {
				t.Fatalf("blocks must stay quarantined behind the cut: %+v", st)
			}

			if _, err := sq.HealPartition(); err != nil {
				t.Fatal(err)
			}
			spread()
			pfsTx := storageTx(cl)
			rep, err = sq.ResilverNode(bg, "node02", day(2))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean || rep.Repaired != rep.Blocks || rep.PeerBlocks != rep.Repaired || storageTx(cl) != pfsTx {
				t.Fatalf("healed resilver must repair everything from peers: %+v", rep)
			}
			if st := nodeStatus(t, sq, "node02"); st.State != StateHealthy || st.Withdrawn {
				t.Fatalf("node still quarantined after the heal: %+v", st)
			}
		})
	}
}

func TestBootAutoResilversDamagedNode(t *testing.T) {
	sq, _, repo, _ := testDeployment(t, 3, withPeers, withFaults(fault.Plan{Seed: 17, Rot: 0.4}), withTracing(soakRing))
	im := repo.Images[0]
	mustRegister(t, sq, im, day(0))
	refs, err := sq.InjectRot("node01")
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) == 0 {
		t.Fatal("rot plan injected nothing")
	}
	if _, err := sq.ScrubNode(bg, "node01", day(1)); err != nil {
		t.Fatal(err)
	}
	br, err := sq.Boot(context.Background(), BootRequest{Image: im.ID, Node: "node01", Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !br.Healed {
		t.Fatalf("boot on a quarantined node should resilver first: %+v", br)
	}
	if !br.Warm {
		t.Fatalf("resilvered replica should serve the boot warm: %+v", br)
	}
	if st := nodeStatus(t, sq, "node01"); st.State != StateHealthy || st.Withdrawn {
		t.Fatalf("node still quarantined after boot: %+v", st)
	}
}

// TestLifecycleChaosSoak is the seeded end-to-end soak the CI chaos
// matrix runs across several seeds (SQUIRREL_CHAOS_SEED overrides the
// default). Its assertions are seed-agnostic invariants: registrations
// never error, scrubs detect every injected rot block, verified boots
// never see a corrupt byte, and the deployment converges to
// all-healthy once faults stop firing.
func TestLifecycleChaosSoak(t *testing.T) {
	seed := int64(1337)
	if env := os.Getenv("SQUIRREL_CHAOS_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad SQUIRREL_CHAOS_SEED %q: %v", env, err)
		}
		seed = v
	}
	plan := fault.Plan{
		Seed: seed, Drop: 0.15, Truncate: 0.05, Corrupt: 0.08,
		Crash: 0.04, Torn: 0.06, MaxCrashes: 3, Rot: 0.03,
	}
	sq, cl, repo, inj := testDeployment(t, 8, withPeers, withFaults(plan), withTracing(soakRing))

	const regs = 8
	for i := 0; i < regs; i++ {
		if _, err := sq.Register(context.Background(), RegisterRequest{Image: repo.Images[i], At: day(i)}); err != nil {
			t.Fatalf("seed %d: registration %d failed: %v", seed, i, err)
		}
	}
	// Latent rot lands everywhere, then the nightly lifecycle pass runs:
	// restart whatever is down, scrub everything, resilver the damage.
	injected := map[string][]zvol.BlockRef{}
	for _, n := range cl.Compute {
		refs, err := sq.InjectRot(n.ID)
		if err != nil {
			t.Fatal(err)
		}
		injected[n.ID] = refs
	}
	for _, st := range sq.Health() {
		if !st.Online {
			if _, err := sq.RestartNode(st.NodeID, day(regs)); err != nil {
				t.Fatal(err)
			}
		}
	}
	scrubs, err := sq.ScrubAll(bg, day(regs))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range cl.Compute {
		found := map[zvol.BlockRef]bool{}
		for _, r := range scrubs[n.ID].Damaged {
			found[r] = true
		}
		for _, r := range injected[n.ID] {
			if !found[r] {
				t.Fatalf("seed %d: scrub on %s missed injected rot at %+v", seed, n.ID, r)
			}
		}
	}
	if _, err := sq.ResilverAll(bg, day(regs)); err != nil {
		t.Fatal(err)
	}
	// Verified boots everywhere, restarting any node a leftover fault
	// takes down. The crash budget is finite, so this converges.
	latest := repo.Images[regs-1]
	for round := 0; round < 4; round++ {
		for _, st := range sq.Health() {
			if !st.Online {
				if _, err := sq.RestartNode(st.NodeID, day(regs+1+round)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, n := range cl.Compute {
			if _, err := sq.Boot(context.Background(), BootRequest{Image: latest.ID, Node: n.ID, Verify: true}); err != nil {
				t.Fatalf("seed %d: verified boot on %s: %v", seed, n.ID, err)
			}
		}
		healthy := true
		for _, st := range sq.Health() {
			if st.State != StateHealthy {
				healthy = false
			}
		}
		if healthy {
			break
		}
	}
	for _, st := range sq.Health() {
		if st.State != StateHealthy || st.Withdrawn {
			t.Fatalf("seed %d: node not healthy after soak: %+v", seed, st)
		}
	}
	want := sq.SCVolume().LatestSnapshot().Name
	for _, n := range cl.Compute {
		ccv, _ := sq.CCVolume(n.ID)
		if snap := ccv.LatestSnapshot(); snap == nil || snap.Name != want {
			t.Fatalf("seed %d: %s did not converge to %s", seed, n.ID, want)
		}
	}
	if ds := sq.Stats(); ds.LaggingNodes != 0 || ds.DamagedNodes != 0 || ds.StaleReplicas != 0 {
		t.Fatalf("seed %d: deployment not converged: %+v", seed, ds)
	}
	// Telemetry invariants: replica-side faults degrade and heal, they
	// never fail an operation outright — so no root span may end in an
	// error state — and every exercised op kind must aggregate.
	tel := sq.Telemetry()
	var failed []*obs.TreeDump
	for _, d := range tel.Trees() {
		if d.Err != "" {
			failed = append(failed, d)
		}
	}
	if len(failed) != 0 {
		t.Fatalf("seed %d: %d operations ended in an error state; first:\n%s",
			seed, len(failed), obs.RenderDump(failed[0]))
	}
	snap := tel.Snapshot()
	for _, kind := range []string{obs.OpRegister, obs.OpBoot, obs.OpScrub, obs.OpResilver, obs.OpRestart} {
		if op, ok := snap.Op(kind); !ok || op.Count == 0 {
			t.Fatalf("seed %d: telemetry missing op kind %q", seed, kind)
		}
	}
	_ = inj
}
