package core

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/fault"
	"repro/internal/peer"
	"repro/internal/qcow"
)

// indexHolds reports whether node announces obj in the configured
// index's operator view.
func indexHolds(sq *Squirrel, obj, node string) bool {
	return slices.Contains(sq.IndexHolders(obj, ""), node)
}

func storageTx(cl *cluster.Cluster) int64 {
	var n int64
	for _, sn := range cl.Storage {
		n += sn.TxBytes()
	}
	return n
}

func TestPeerServesColdBootMiss(t *testing.T) {
	sq, cl, repo, _ := testDeployment(t, 4, withPeers)
	im := repo.Images[0]
	mustRegister(t, sq, im, day(0))
	if !indexHolds(sq, im.ID, "node03") {
		t.Fatal("registration did not announce node03's replica")
	}
	if err := sq.DropReplica("node03", im.ID); err != nil {
		t.Fatal(err)
	}
	if indexHolds(sq, im.ID, "node03") {
		t.Fatal("DropReplica left the announcement behind")
	}
	cl.ResetCounters()
	rep, err := sq.Boot(context.Background(), BootRequest{Image: im.ID, Node: "node03", Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeerBytes <= 0 {
		t.Fatalf("cold miss not served by a peer: %+v", rep)
	}
	if rep.NetworkBytes != 0 {
		t.Fatalf("peer-served boot still pulled %d bytes from the PFS", rep.NetworkBytes)
	}
	if rep.Warm {
		t.Fatal("peer-served boot must not report warm")
	}
	if rep.PeerNode == "" || rep.PeerNode == "node03" {
		t.Fatalf("bad source peer %q", rep.PeerNode)
	}
	// Exact NIC accounting: all boot traffic is peer traffic, none of it
	// touched the storage nodes.
	if tx := storageTx(cl); tx != 0 {
		t.Fatalf("storage nodes transmitted %d bytes during a peer-served boot", tx)
	}
	if rx := cl.ComputeRxTotal(); rx != rep.PeerBytes {
		t.Fatalf("compute NICs saw %d bytes, report says %d", rx, rep.PeerBytes)
	}
	// The exchange's own accounting agrees.
	ctr := sq.PeerCounters()
	if ctr.Get("peer.bytes") != rep.PeerBytes || ctr.Get("peer.hit") == 0 {
		t.Fatalf("peer counters: %s", ctr)
	}
	// Selection is least-loaded, so serves spread across the holders; the
	// loads must sum to the report, the top server must be the report's
	// PeerNode, and nobody may still hold a slot.
	var sum, top int64
	for _, l := range sq.Stats().PeerLoads {
		sum += l.ServedBytes
		if l.Active != 0 {
			t.Fatalf("leaked serve slot: %+v", l)
		}
		if l.ServedBytes > top {
			top = l.ServedBytes
			if l.NodeID != rep.PeerNode {
				t.Fatalf("top server %s, report says %s", l.NodeID, rep.PeerNode)
			}
		}
	}
	if sum != rep.PeerBytes {
		t.Fatalf("serve loads sum to %d, report says %d", sum, rep.PeerBytes)
	}
	if sq.PeerCounters().Get("peer.bytes") != rep.PeerBytes {
		t.Fatal("peer.bytes counter disagrees with the report")
	}
}

func TestPeerOffloadsConcurrentColdBoots(t *testing.T) {
	// Twin deployments over the same seeded corpus: one PFS-only, one
	// peer-assisted. The same wave of concurrent cold boots must move a
	// majority of miss bytes off the storage nodes.
	const nodes, images, holders = 8, 3, 2
	run := func(enabled bool) (peerSum, pfsSum, tx int64) {
		sq, cl, repo, _ := testDeployment(t, nodes, withPeers, func(s *setup) { s.Peer.Enabled = enabled })
		for i := 0; i < images; i++ {
			mustRegister(t, sq, repo.Images[i], day(i))
		}
		// Scatter-hoard partial state: only the first `holders` nodes
		// keep replicas; everyone else cold-boots.
		for i := 0; i < images; i++ {
			for n := holders; n < nodes; n++ {
				if err := sq.DropReplica(cl.Compute[n].ID, repo.Images[i].ID); err != nil {
					t.Fatal(err)
				}
			}
		}
		cl.ResetCounters()
		var (
			wg   sync.WaitGroup
			mu   sync.Mutex
			errs []error
		)
		for i := 0; i < images; i++ {
			for n := holders; n < nodes; n++ {
				im, nodeID := repo.Images[i], cl.Compute[n].ID
				wg.Add(1)
				go func() {
					defer wg.Done()
					rep, err := sq.Boot(context.Background(), BootRequest{Image: im.ID, Node: nodeID, Verify: true})
					mu.Lock()
					defer mu.Unlock()
					if err != nil {
						errs = append(errs, err)
						return
					}
					peerSum += rep.PeerBytes
					pfsSum += rep.NetworkBytes
				}()
			}
		}
		wg.Wait()
		for _, err := range errs {
			t.Fatal(err)
		}
		return peerSum, pfsSum, storageTx(cl)
	}
	basePeer, basePFS, baseTx := run(false)
	if basePeer != 0 || basePFS == 0 {
		t.Fatalf("PFS-only run: peer=%d pfs=%d", basePeer, basePFS)
	}
	peerSum, pfsSum, tx := run(true)
	if peerSum == 0 {
		t.Fatal("peer-assisted run served nothing from peers")
	}
	if pfsSum >= basePFS {
		t.Fatalf("peer run PFS bytes %d not lower than PFS-only %d", pfsSum, basePFS)
	}
	if tx >= baseTx {
		t.Fatalf("storage tx %d not lower than PFS-only %d", tx, baseTx)
	}
	if peerSum <= pfsSum {
		t.Fatalf("peers served %d of %d miss bytes — not a majority", peerSum, peerSum+pfsSum)
	}
}

// countingCodec is gzip6 under another name that counts the bytes it is
// asked to decode and the blocks it is asked to encode — a test-side
// meter for how much inflating a boot causes and how much deflating a
// registration does, so production needs no counter for either.
type countingCodec struct {
	compress.Codec
	decoded    atomic.Int64
	compressed atomic.Int64 // Compress calls
}

func (c *countingCodec) Name() string { return "gzip6-counted" }

func (c *countingCodec) Compress(src []byte) []byte {
	c.compressed.Add(1)
	return c.Codec.Compress(src)
}

func (c *countingCodec) Decompress(src []byte, maxLen int) ([]byte, error) {
	out, err := c.Codec.Decompress(src, maxLen)
	c.decoded.Add(int64(len(out)))
	return out, err
}

func (c *countingCodec) DecompressInto(dst, src []byte) error {
	c.decoded.Add(int64(len(dst)))
	return c.Codec.DecompressInto(dst, src)
}

// countedGzip registers the counting codec on first use (the registry
// refuses duplicates, and -count reruns tests in one process).
var countedGzip = sync.OnceValue(func() *countingCodec {
	c := &countingCodec{Codec: compress.MustGet("gzip6")}
	compress.Register(c)
	return c
})

func TestColdBootDecodesEachRangeOnce(t *testing.T) {
	// A cold boot scatters its fetches over the holders on purpose
	// (least-loaded selection). Each source decodes only the blocks under
	// the ranges it serves, so however many sources take part, the boot
	// inflates the cache object exactly once in total — not once per
	// source.
	codec := countedGzip()
	sq, _, repo, _ := testDeployment(t, 5, withPeers, withFaults(fault.Plan{Seed: 1}), func(s *setup) {
		s.Volume.Codec = codec.Name()
	})
	im := repo.Images[0]
	mustRegister(t, sq, im, day(0))
	if err := sq.DropReplica("node00", im.ID); err != nil {
		t.Fatal(err)
	}
	holder, err := sq.CCVolume("node01")
	if err != nil {
		t.Fatal(err)
	}
	infos, err := holder.BlockInfos(im.ID)
	if err != nil {
		t.Fatal(err)
	}
	var compressed int64 // logical bytes of the object that sit behind the codec
	for _, bi := range infos {
		if bi.Compressed {
			compressed += int64(bi.LogLen)
		}
	}
	if compressed == 0 {
		t.Fatal("no block of the cache object is stored compressed: nothing to measure")
	}

	before := codec.decoded.Load()
	rep, err := sq.Boot(context.Background(), BootRequest{Image: im.ID, Node: "node00", Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeerBytes != im.CacheSize() || rep.PeerFallbacks != 0 {
		t.Fatalf("cold boot did not ride the peer exchange: %+v", rep)
	}
	sources := 0
	for _, l := range sq.Stats().PeerLoads {
		if l.ServedBytes > 0 {
			sources++
		}
	}
	if sources < 3 {
		t.Fatalf("boot drew from %d sources, want at least 3", sources)
	}
	if got := codec.decoded.Load() - before; got != compressed {
		t.Fatalf("boot decoded %d bytes across %d sources, the cache object holds %d compressed",
			got, sources, compressed)
	}
}

func TestPeerRungLendsTheSourcesBytes(t *testing.T) {
	// On a node without the replica the ladder's peer rung lends the
	// reader the source replica's own bytes — the very pieces the source's
	// Visit of the range lends (decode-cache entries, stored payloads) —
	// not a copy of them, and covers the window exactly once. The range
	// spans several blocks, so more than one piece is lent.
	sq, _, repo, _ := testDeployment(t, 4, withPeers)
	im := repo.Images[0]
	mustRegister(t, sq, im, day(0))
	if err := sq.DropReplica("node03", im.ID); err != nil {
		t.Fatal(err)
	}
	r := sq.replicas["node03"]
	cb, err := newChainBackend(sq, im, sq.ccVolume(r), r.node)
	if err != nil {
		t.Fatal(err)
	}
	if cb.ccv != nil {
		t.Fatal("node03 still holds the replica")
	}
	cb.fetch = sq.newPeerFetcher(context.Background(), nil, "peerfetch", im.ID, r.node)
	lay := im.Layout()
	ext := 0
	for i, e := range lay.Ext {
		if e.Len > lay.Ext[ext].Len {
			ext = i
		}
	}
	off, n := lay.Ext[ext].Off, min(lay.Ext[ext].Len, 3*int64(sq.cfg.Volume.BlockSize))
	if n <= int64(sq.cfg.Volume.BlockSize) {
		t.Fatalf("the longest cache extent is %d bytes: no range spans two blocks", lay.Ext[ext].Len)
	}
	var lent [][]byte
	if err := cb.Lend(off, n, qcow.Window{From: off, To: off + n, Fn: func(p []byte) { lent = append(lent, p) }}); err != nil {
		t.Fatal(err)
	}
	if cb.peerBytes != n || cb.networkBytes != 0 || cb.cacheBytes != 0 {
		t.Fatalf("peer %d, pfs %d, cache %d bytes; want the %d-byte range from peers",
			cb.peerBytes, cb.networkBytes, cb.cacheBytes, n)
	}
	src := cb.fetch.topSource()
	var want [][]byte
	if err := sq.ccVolume(sq.replicas[src]).Visit(im.ID, lay.Base[ext], n, func(p []byte) { want = append(want, p) }); err != nil {
		t.Fatal(err)
	}
	if len(want) < 2 || len(lent) != len(want) {
		t.Fatalf("lent %d pieces, %s's Visit lends %d", len(lent), src, len(want))
	}
	var covered int64
	for i, p := range lent {
		if len(p) != len(want[i]) || unsafe.SliceData(p) != unsafe.SliceData(want[i]) {
			t.Fatalf("piece %d (%d bytes) is not %s's own bytes (%d bytes): a copy", i, len(p), src, len(want[i]))
		}
		covered += int64(len(p))
	}
	if covered != n {
		t.Fatalf("lent %d bytes of a %d-byte window", covered, n)
	}

	// A faulted attempt lends nothing: under a lossy plan every range is
	// lent exactly once when some attempt succeeds, and not at all when
	// the fetch gives up (the window would hide a second lending).
	setFaults(sq, fault.Plan{Seed: 42, Drop: 0.5, Truncate: 0.2, Corrupt: 0.15}, t)
	f := sq.newPeerFetcher(context.Background(), nil, "peerfetch", im.ID, r.node)
	faulted := sq.PeerCounters().Get("peer.fault")
	for i, e := range lay.Ext {
		var lent int64
		ok := f.fetch(lay.Base[i], e.Len, func(p []byte) { lent += int64(len(p)) })
		want := int64(0)
		if ok {
			want = e.Len
		}
		if lent != want {
			t.Fatalf("extent %d: fetch %v lent %d bytes, want %d", i, ok, lent, want)
		}
	}
	if sq.PeerCounters().Get("peer.fault") == faulted {
		t.Fatal("the lossy plan faulted no attempt")
	}
}

// setFaults swaps the deployment's injector after registration so tests
// can fault only the peer-fetch path.
func setFaults(sq *Squirrel, plan fault.Plan, t testing.TB) *fault.Injector {
	t.Helper()
	inj := seeded(t, plan)
	sq.SetFaults(inj)
	return inj
}

func TestPeerFetchFaultFailoverDeterministic(t *testing.T) {
	// Under a lossy plan the peer path fails over source by source and
	// finally to the PFS; the boot still verifies byte-exact, every
	// transferred byte is accounted, and the whole run replays
	// identically from the seed.
	boot := func() (BootReport, map[string]int64, int64) {
		sq, cl, repo, _ := testDeployment(t, 4, withPeers)
		im := repo.Images[0]
		mustRegister(t, sq, im, day(0))
		if err := sq.DropReplica("node03", im.ID); err != nil {
			t.Fatal(err)
		}
		setFaults(sq, fault.Plan{Seed: 42, Drop: 0.5, Truncate: 0.2, Corrupt: 0.15}, t)
		cl.ResetCounters()
		rep, err := sq.Boot(context.Background(), BootRequest{Image: im.ID, Node: "node03", Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		return rep, sq.PeerCounters().Snapshot(), cl.ComputeRxTotal()
	}
	rep, ctr, rx := boot()
	if ctr["peer.fault"] == 0 {
		t.Fatalf("plan injected no faults: %v", ctr)
	}
	// The seed's outcome, pinned: lending the source's bytes instead of
	// copying them must not shift a fault draw or a byte of accounting.
	if rx != 32247 || ctr["peer.fault"] != 6 || ctr["peer.wasted_bytes"] != 15863 ||
		ctr["peer.hit"] != 2 || ctr["peer.fallback"] != 2 {
		t.Fatalf("seed 42 moved: rx %d, peer.fault %d, peer.wasted_bytes %d, peer.hit %d, peer.fallback %d; want 32247, 6, 15863, 2, 2",
			rx, ctr["peer.fault"], ctr["peer.wasted_bytes"], ctr["peer.hit"], ctr["peer.fallback"])
	}
	if rep.PeerBytes == 0 || ctr["peer.hit"] == 0 {
		t.Fatalf("no ranges survived the lossy exchange: %+v %v", rep, ctr)
	}
	if ctr["peer.fallback"] == 0 || rep.PeerFallbacks == 0 || rep.NetworkBytes == 0 {
		t.Fatalf("no ranges fell back to the PFS: %+v %v", rep, ctr)
	}
	// Exact accounting: the booting node received its PFS bytes, its
	// peer bytes, and the wasted bytes of truncated/corrupted transfers.
	if want := rep.NetworkBytes + rep.PeerBytes + ctr["peer.wasted_bytes"]; rx != want {
		t.Fatalf("compute rx %d, want %d (pfs %d + peer %d + wasted %d)",
			rx, want, rep.NetworkBytes, rep.PeerBytes, ctr["peer.wasted_bytes"])
	}
	// Deterministic replay: identical deployment, identical outcomes.
	rep2, ctr2, rx2 := boot()
	if rep2 != rep || rx2 != rx {
		t.Fatalf("chaos boot not reproducible:\n%+v rx=%d\n%+v rx=%d", rep, rx, rep2, rx2)
	}
	for k, v := range ctr {
		if ctr2[k] != v {
			t.Fatalf("counter %s: %d vs %d", k, v, ctr2[k])
		}
	}
}

func TestPeerSourceCrashFailsOverToPFS(t *testing.T) {
	sq, _, repo, _ := testDeployment(t, 4, withPeers)
	im := repo.Images[0]
	mustRegister(t, sq, im, day(0))
	if err := sq.DropReplica("node03", im.ID); err != nil {
		t.Fatal(err)
	}
	// Every transfer decision crashes, budget 1: the first source dies
	// mid-serve, later crashes degrade to drops, the boot finishes off
	// the PFS.
	setFaults(sq, fault.Plan{Seed: 7, Crash: 1, MaxCrashes: 1}, t)
	rep, err := sq.Boot(context.Background(), BootRequest{Image: im.ID, Node: "node03", Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeerBytes != 0 || rep.NetworkBytes == 0 {
		t.Fatalf("crash-looped boot should finish off the PFS: %+v", rep)
	}
	ctr := sq.PeerCounters()
	if ctr.Get("peer.crash") != 1 {
		t.Fatalf("want exactly one source crash, got %d", ctr.Get("peer.crash"))
	}
	// The crashed source (least-loaded pick: node00) is offline, lagging,
	// and withdrawn from the index.
	if got := sq.Lagging(); len(got) != 1 || got[0] != "node00" {
		t.Fatalf("lagging: %v", got)
	}
	if indexHolds(sq, im.ID, "node00") {
		t.Fatal("crashed source still announced")
	}
	// Recovery: the crashed node comes back, heals on first boot, and
	// re-announces.
	if err := sq.SetOnline("node00", true); err != nil {
		t.Fatal(err)
	}
	br, err := sq.Boot(context.Background(), BootRequest{Image: im.ID, Node: "node00", Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !br.Healed || !br.Warm {
		t.Fatalf("crashed source did not heal: %+v", br)
	}
	if !indexHolds(sq, im.ID, "node00") {
		t.Fatal("healed node did not re-announce")
	}
}

func TestPeerNeverPicksIneligibleSources(t *testing.T) {
	sq, cl, repo, _ := testDeployment(t, 4, withPeers)
	im := repo.Images[0]
	mustRegister(t, sq, im, day(0))
	// Strip all but one replica; take that sole holder offline. The cold
	// boot must fall back to the PFS (never the booting node itself, an
	// offline node, or a node without the object).
	for _, n := range []string{"node01", "node02"} {
		if err := sq.DropReplica(n, im.ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := sq.DropReplica("node03", im.ID); err != nil {
		t.Fatal(err)
	}
	if err := sq.SetOnline("node00", false); err != nil {
		t.Fatal(err)
	}
	cl.ResetCounters()
	rep, err := sq.Boot(context.Background(), BootRequest{Image: im.ID, Node: "node03", Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeerBytes != 0 || rep.NetworkBytes == 0 {
		t.Fatalf("boot should have used the PFS only: %+v", rep)
	}
	if sq.PeerCounters().Get("peer.hit") != 0 {
		t.Fatal("an ineligible source served a fetch")
	}
	if node00 := cl.Compute[0]; node00.TxBytes() != 0 {
		t.Fatal("offline node transmitted bytes")
	}
}

func TestPeerIndexMaintenance(t *testing.T) {
	sq, _, repo, _ := testDeployment(t, 4, withPeers)
	ix := sq.idx
	a, b := repo.Images[0], repo.Images[1]
	mustRegister(t, sq, a, day(0))
	mustRegister(t, sq, b, day(1))
	if ix.Objects() != 2 || ix.Entries() != 8 {
		t.Fatalf("after 2 registrations: objects=%d entries=%d", ix.Objects(), ix.Entries())
	}
	// Offline → withdrawn; online → re-announced from actual holdings.
	if err := sq.SetOnline("node02", false); err != nil {
		t.Fatal(err)
	}
	if ix.Entries() != 6 || indexHolds(sq, a.ID, "node02") {
		t.Fatalf("offline withdraw: entries=%d", ix.Entries())
	}
	if err := sq.SetOnline("node02", true); err != nil {
		t.Fatal(err)
	}
	if ix.Entries() != 8 || !indexHolds(sq, a.ID, "node02") {
		t.Fatalf("online re-announce: entries=%d", ix.Entries())
	}
	// Deregistration withdraws the object everywhere, immediately.
	if err := sq.Deregister(a.ID); err != nil {
		t.Fatal(err)
	}
	if ix.Objects() != 1 || ix.Holders(a.ID, "") != nil && len(ix.Holders(a.ID, "")) != 0 {
		t.Fatalf("deregister: objects=%d holders=%v", ix.Objects(), ix.Holders(a.ID, ""))
	}
	// A later registration must not resurrect the deregistered object on
	// replicas that still physically hold it pending snapshot cleanup.
	c := repo.Images[2]
	mustRegister(t, sq, c, day(2))
	if indexHolds(sq, a.ID, "node00") {
		t.Fatal("deregistered object re-announced")
	}
	if !indexHolds(sq, c.ID, "node00") || ix.Objects() != 2 {
		t.Fatalf("post-deregister registration: objects=%d", ix.Objects())
	}
	// GC reconciles without inventing entries.
	sq.GarbageCollect(day(40))
	if ix.Objects() != 2 || ix.Entries() != 8 {
		t.Fatalf("after GC: objects=%d entries=%d", ix.Objects(), ix.Entries())
	}
}

// TestPeerIndexFacadeIsOneMethod: PeerIndex is a view kept for one
// benchmark call, not a second way into the exchange.
func TestPeerIndexFacadeIsOneMethod(t *testing.T) {
	sq, _, _, _ := testDeployment(t, 2, withPeers)
	if n := reflect.TypeOf(sq.PeerIndex()).NumMethod(); n != 1 {
		t.Fatalf("PeerIndex has %d methods, want 1", n)
	}
}

// TestPeerIndexFacadeResolvesConfiguredIndex: in both index modes the
// facade picks a holder the configured index lists, and its release
// lands on the ledger Stats reports.
func TestPeerIndexFacadeResolvesConfiguredIndex(t *testing.T) {
	for _, mode := range []IndexMode{IndexCentral, IndexGossip} {
		t.Run(mode.String(), func(t *testing.T) {
			sq, _, repo, _ := testDeployment(t, 4, withPeers, withIndex(mode))
			im := repo.Images[0]
			mustRegister(t, sq, im, day(0))
			for round := 0; mode == IndexGossip && len(sq.IndexHolders(im.ID, "")) == 0; round++ {
				if round == 32 {
					t.Fatal("leases did not spread in 32 gossip rounds")
				}
				if _, err := sq.GossipTicks(1); err != nil {
					t.Fatal(err)
				}
			}
			src, release, ok, _ := sq.PeerIndex().Acquire(im.ID, peer.DefaultMaxServeSlots, nil)
			if !ok || !slices.Contains(sq.IndexHolders(im.ID, ""), src) {
				t.Fatalf("facade picked %q (ok=%v), holders %v", src, ok, sq.IndexHolders(im.ID, ""))
			}
			release(777)
			for _, l := range sq.Stats().PeerLoads {
				if l.NodeID == src && l.Active == 0 && l.ServedBytes == 777 {
					return
				}
			}
			t.Fatalf("release on %s missing from PeerLoads %+v", src, sq.Stats().PeerLoads)
		})
	}
}
