package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/qcow"
	"repro/internal/zvol"
)

// BootRequest names the inputs of one VM start.
type BootRequest struct {
	// Image is the registered VMI to boot.
	Image string
	// Node is the compute node the VM lands on.
	Node string
	// Verify additionally checks every read against the image's true
	// content — the end-to-end correctness check for the whole chain.
	Verify bool
	// SkipCache bypasses the caching layer entirely: the CoW overlay
	// chains directly onto the PFS-hosted base VMI (the paper's "without
	// caches" baseline in Fig 18). No healing, no peer exchange — every
	// boot pulls its working set over the data-center network.
	SkipCache bool
}

// BootReport describes one VM start on a compute node.
type BootReport struct {
	ImageID      string
	NodeID       string
	Warm         bool  // served entirely from the local ccVolume
	Healed       bool  // node was lagging and auto-synced before the boot
	NetworkBytes int64 // bytes this boot pulled from the PFS (storage nodes)
	CacheBytes   int64 // bytes served from the local cache
	ReadBytes    int64 // total bytes the VM read during boot

	// Peer block exchange accounting.
	PeerBytes     int64  // bytes served by neighboring compute nodes
	PeerNode      string // peer that served the most bytes ("" if none)
	PeerFallbacks int    // peer-servable ranges that fell back to the PFS

	// Resilience accounting.
	HedgesFired  int     // slow peer serves that cloned a hedge leg
	HedgesWon    int     // hedge legs that delivered first
	BreakerTrips int     // per-peer circuit breakers this boot tripped
	PeerStallSec float64 // simulated stall time slow peer serves cost this boot
}

// Boot starts a VM (§3.3, Fig 7): an empty CoW overlay is chained onto
// the VMI cache in the local ccVolume, which recurses to the PFS-hosted
// base VMI only for ranges the cache does not hold. The boot trace is
// replayed through the chain with real data, and the report accounts
// where every byte came from.
//
// Booting on a lagging node (one that exhausted its registration repair
// budget, or crashed mid-transfer and came back) first heals it through
// the SyncNode path (§3.5), then boots warm from the repaired replica.
//
// Boots run fully concurrently: two boots contend only when they land
// on the same node (its replica lock during healing, its cache chain)
// or consult the same peer index entries. A cancelled context aborts
// the trace replay between reads and returns the context error; no
// deployment state is left half-changed.
func (s *Squirrel) Boot(ctx context.Context, req BootRequest) (BootReport, error) {
	ctx = reqCtx(ctx)
	id, nodeID := req.Image, req.Node
	if err := ctx.Err(); err != nil {
		return BootReport{}, fmt.Errorf("core: boot %s on %s: %w", id, nodeID, err)
	}
	s.state.RLock()
	im, ok := s.images[id]
	lagging, damaged := s.lagging[nodeID], len(s.damaged[nodeID]) > 0
	online := s.online[nodeID]
	s.state.RUnlock()
	if !ok {
		return BootReport{}, fmt.Errorf("%w: %s", ErrUnknownImage, id)
	}
	node, err := s.computeNode(nodeID)
	if err != nil {
		return BootReport{}, err
	}
	if !online {
		return BootReport{}, fmt.Errorf("%w: %s", ErrNodeOffline, nodeID)
	}
	// The boot span parents under whatever span the context carries —
	// nothing in-process, the daemon's dispatch span over the wire — so
	// one request renders as one tree across processes.
	sp := s.tr.Op(obs.SpanFromContext(ctx), obs.OpBoot, nodeID, id)
	fail := func(err error) (BootReport, error) {
		sp.Fail(err)
		sp.Finish()
		return BootReport{}, err
	}
	// Admission control: take (or queue for) one of the node's boot
	// slots before touching any replica state. A shed boot fails with
	// ErrOverloaded well inside its deadline.
	release, err := s.admit(ctx, nodeID, sp)
	if err != nil {
		return fail(err)
	}
	defer release()
	healed := false
	if !req.SkipCache && (lagging || damaged) {
		// Healing is a compound replica operation; serialize it against
		// other operations on this node and re-check the flags under the
		// lock — a concurrent boot may have healed the node already.
		nl := s.nodeLocks.lock(nodeID)
		s.state.RLock()
		lagging, damaged = s.lagging[nodeID], len(s.damaged[nodeID]) > 0
		lastScrub := s.lastScrub[nodeID]
		s.state.RUnlock()
		if lagging {
			if _, err := s.syncNodeGuarded(sp, nodeID); err != nil {
				nl.Unlock()
				return fail(fmt.Errorf("core: healing lagging node %s: %w", nodeID, err))
			}
			healed = true
		}
		// Quarantined damage is resilvered before the boot touches the
		// replica, like lagging is synced: landing a VM on a node is exactly
		// when its replica should be made whole. A resilver that cannot fully
		// repair (every source down) is fine — read-time checksums route the
		// still-damaged ranges to peers or the PFS below.
		if damaged {
			if _, err := s.resilverGuarded(sp, nodeID, lastScrub); err != nil {
				nl.Unlock()
				return fail(fmt.Errorf("core: resilvering node %s: %w", nodeID, err))
			}
			healed = true
		}
		nl.Unlock()
	}
	var ccv *zvol.Volume
	if !req.SkipCache {
		ccv = s.ccVolume(nodeID) // after healing: a full sync swaps the volume
	} else {
		sp.Annotate("uncached", 1)
	}

	cb, err := newChainBackend(s, im, ccv, node)
	if err != nil {
		return fail(err)
	}
	// A cold miss (no local replica) may be served by the peer exchange
	// before falling back to the PFS — unless the caching layer is
	// bypassed outright.
	if !req.SkipCache && s.cfg.Peer.Enabled && !cb.local {
		cb.fetch = s.newPeerFetcher(ctx, im, node)
		cb.fetch.sp = sp
	}
	cow, err := qcow.NewOverlay(cb, s.cfg.ClusterSize, false)
	if err != nil {
		return fail(err)
	}

	// The simulated device wait happens outside every lock: concurrent
	// boots overlap their waits, which is where boot-storm wall-clock
	// scaling comes from (the old global manager mutex serialized it).
	if d := s.cfg.BootLatency; d > 0 {
		time.Sleep(d)
	}

	rep := BootReport{ImageID: id, NodeID: nodeID, Healed: healed}
	var gen *corpus.Generator
	if req.Verify {
		gen = corpus.NewGenerator(im)
	}
	buf := make([]byte, 0, 64<<10)
	for _, e := range im.BootTrace() {
		if err := ctx.Err(); err != nil {
			return fail(fmt.Errorf("core: boot %s on %s: %w", id, nodeID, err))
		}
		if int64(cap(buf)) < e.Len {
			buf = make([]byte, e.Len)
		}
		b := buf[:e.Len]
		if _, err := cow.ReadAt(b, e.Off); err != nil && err != io.EOF {
			return fail(fmt.Errorf("core: boot read at %d: %w", e.Off, err))
		}
		rep.ReadBytes += e.Len
		if req.Verify {
			want := make([]byte, e.Len)
			if _, err := gen.ReadAt(want, e.Off); err != nil && err != io.EOF {
				return fail(err)
			}
			if !bytes.Equal(b, want) {
				return fail(fmt.Errorf("core: boot data mismatch at %d (+%d)", e.Off, e.Len))
			}
		}
	}
	rep.NetworkBytes = cb.networkBytes
	rep.CacheBytes = cb.cacheBytes
	if cb.fetch != nil {
		rep.PeerBytes = cb.peerBytes
		rep.PeerNode = cb.fetch.topSource()
		rep.PeerFallbacks = cb.fetch.fallbacks
		rep.HedgesFired = cb.fetch.hedgesFired
		rep.HedgesWon = cb.fetch.hedgesWon
		rep.BreakerTrips = cb.fetch.trips
		rep.PeerStallSec = cb.fetch.stallSec
	}
	rep.Warm = !req.SkipCache && cb.networkBytes == 0 && cb.peerBytes == 0
	s.recordBootLanes(sp, cb)
	sp.AddBytes(rep.ReadBytes)
	sp.Finish()
	return rep, nil
}

// recordBootLanes summarizes one boot's byte provenance as per-lane
// child spans (peerFetch children are recorded per-transfer by the
// fetcher itself): cacheRead for locally served bytes with a DAS-4 disk
// read-time model, pfsRead for bytes pulled over the network with the
// fabric's transfer-time model. The pfsRead span splits its bytes into
// indexed_bytes (ranges inside cache extents that fell back to the PFS)
// and gap_bytes (ranges only the PFS holds) — the split figtrace and the
// trace-based tests assert on.
func (s *Squirrel) recordBootLanes(sp *obs.Span, cb *chainBackend) {
	if sp == nil {
		return
	}
	// Lane children are built detached and adopted in one batch: a single
	// parent-lock acquisition instead of one per lane on the boot path.
	var lanes [2]*obs.Span
	n := 0
	if cb.cacheBytes > 0 {
		c := sp.NewDetached(obs.OpCacheRead, cb.node.ID, cb.id)
		c.AddBytes(cb.cacheBytes)
		c.AddSim(float64(cb.cacheBytes) / disk.DAS4Model().ReadBps)
		lanes[n] = c
		n++
	}
	if cb.networkBytes > 0 {
		c := sp.NewDetached(obs.OpPFSRead, cb.node.ID, cb.id)
		c.AddBytes(cb.networkBytes)
		c.AddSim(s.cl.Fabric.TransferSec(cb.networkBytes))
		c.Annotate("indexed_bytes", cb.pfsIndexed)
		c.Annotate("gap_bytes", cb.networkBytes-cb.pfsIndexed)
		lanes[n] = c
		n++
	}
	if n > 0 {
		sp.Adopt(lanes[:n]...)
		for _, c := range lanes[:n] {
			c.Finish()
		}
	}
}

// computeNode finds the cluster node struct for a compute node ID.
// Lock-free: the node map is immutable after New.
func (s *Squirrel) computeNode(nodeID string) (*cluster.Node, error) {
	if n, ok := s.nodes[nodeID]; ok {
		return n, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrUnknownNode, nodeID)
}

// chainBackend is the "cache chained to base" layer under the CoW
// overlay: ranges held by the local ccVolume cache are served locally;
// ranges inside the image's cache extents but missing locally may be
// fetched from a peer replica; anything else goes to the PFS over the
// network.
type chainBackend struct {
	id      string
	rawSize int64
	node    *cluster.Node
	pfs     pfsReader
	fetch   *peerFetcher // nil unless peer exchange is enabled and the replica is missing

	// exts/bases describe the image's cache-object layout: extent i of
	// the image maps to [bases[i], bases[i]+exts[i].Len) of the cache
	// object. Identical on every replica, so they double as the map for
	// peer fetches. cacheData is the locally materialized object; local
	// says whether this node holds it.
	local     bool
	cacheData []byte
	exts      []corpus.Extent
	bases     []int64

	networkBytes int64 // pulled from the PFS
	cacheBytes   int64 // served from the local replica
	peerBytes    int64 // served by neighboring compute nodes
	pfsIndexed   int64 // PFS bytes inside cache extents (peer-servable ranges that fell through)
}

// pfsReader is the slice of the PFS API the backend needs.
type pfsReader interface {
	ReadAt(client *cluster.Node, name string, buf []byte, off int64) (int, error)
}

func newChainBackend(s *Squirrel, im *corpus.Image, ccv *zvol.Volume, node *cluster.Node) (*chainBackend, error) {
	cb := &chainBackend{id: im.ID, rawSize: im.RawSize(), node: node, pfs: s.pfs}
	var base int64
	for _, e := range im.CacheExtentsSorted() {
		cb.exts = append(cb.exts, corpus.Extent{Off: e.Off, Len: e.Len})
		cb.bases = append(cb.bases, base)
		base += e.Len
	}
	if ccv != nil && ccv.HasObject(im.ID) {
		data, err := ccv.ReadObject(im.ID)
		switch {
		case errors.Is(err, zvol.ErrCorrupt):
			// Undetected (or unrepaired) rot in the local replica: the
			// checksum fails the read instead of serving bad bytes, and the
			// boot falls back to the peer/PFS chain as if the replica were
			// absent. The damage is left for the next scrub to quarantine.
			s.peers.Counters().Add("boot.corrupt_local", 1)
		case err != nil:
			return nil, err
		case base != int64(len(data)):
			return nil, fmt.Errorf("core: cache object %s is %d bytes, extents say %d",
				im.ID, len(data), base)
		default:
			cb.local = true
			cb.cacheData = data
		}
	}
	return cb, nil
}

// Size implements qcow.Backend.
func (cb *chainBackend) Size() int64 { return cb.rawSize }

// ReadAt implements qcow.Backend: local cache extents first, then the
// peer exchange for cache-covered ranges the node is missing, then the
// PFS for everything else (including peer-fetch fallbacks).
func (cb *chainBackend) ReadAt(p []byte, off int64) (int, error) {
	total := 0
	for len(p) > 0 && off < cb.rawSize {
		n, ext, served := cb.cacheRange(p, off)
		switch {
		case served:
			cb.cacheBytes += n
		case ext >= 0 && cb.fetch != nil &&
			cb.fetch.fetch(p[:n], cb.bases[ext]+(off-cb.exts[ext].Off)):
			cb.peerBytes += n
		default:
			read, err := cb.pfs.ReadAt(cb.node, cb.id, p[:n], off)
			if err != nil && err != io.EOF {
				return total, err
			}
			cb.networkBytes += int64(read)
			if ext >= 0 {
				cb.pfsIndexed += int64(read)
			}
			if int64(read) != n {
				return total + read, io.EOF
			}
		}
		p = p[n:]
		off += n
		total += int(n)
	}
	if len(p) > 0 {
		return total, io.EOF
	}
	return total, nil
}

// cacheRange resolves the prefix of p against the cache layout. It
// returns the prefix length n (clamped to the image size, the containing
// extent, or the gap up to the next extent), the index of the containing
// extent (-1 when [off, off+n) lies outside every cache extent), and
// whether the bytes were served from the local replica. When ext >= 0
// but served is false the range is a cold miss a peer replica could
// serve; when ext < 0 only the PFS holds the bytes.
func (cb *chainBackend) cacheRange(p []byte, off int64) (n int64, ext int, served bool) {
	n = int64(len(p))
	if rem := cb.rawSize - off; n > rem {
		n = rem
	}
	if len(cb.exts) == 0 {
		return n, -1, false
	}
	// First extent ending after off.
	i := sort.Search(len(cb.exts), func(i int) bool {
		return cb.exts[i].Off+cb.exts[i].Len > off
	})
	if i < len(cb.exts) && cb.exts[i].Off <= off {
		// Inside extent i.
		e := cb.exts[i]
		if rem := e.Off + e.Len - off; n > rem {
			n = rem
		}
		if cb.local {
			src := cb.bases[i] + (off - e.Off)
			copy(p[:n], cb.cacheData[src:src+n])
			return n, i, true
		}
		return n, i, false
	}
	// Before extent i (or past all extents): a gap only the PFS holds.
	if i < len(cb.exts) && cb.exts[i].Off < off+n {
		n = cb.exts[i].Off - off
	}
	return n, -1, false
}
