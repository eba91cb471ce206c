package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/metrics"
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
// base VMI only for ranges the cache does not hold. The boot reads each
// extent of the image's boot working set once, whole, in offset order,
// through the chain with real data, and the report accounts where every
// byte came from.
//
// Booting on a lagging node (one that exhausted its registration repair
// budget, or crashed mid-transfer and came back) first heals it through
// the SyncNode path (§3.5), then boots warm from the repaired replica.
//
// Boots run fully concurrently: two boots contend only when they land
// on the same node (its replica lock during healing, its cache chain)
// or consult the same peer index entries. A cancelled context aborts
// the boot between reads and returns the context error; no
// deployment state is left half-changed.
func (s *Squirrel) Boot(ctx context.Context, req BootRequest) (BootReport, error) {
	id, nodeID := req.Image, req.Node
	// Cancellation is polled on Done, not Err: a cancelCtx's Err takes its
	// mutex, and every boot the daemon serves shares one server context.
	// A context without a Done channel (never cancelled, or a test's) is
	// asked through Err.
	done := ctx.Done()
	if cancelled(ctx, done) {
		return BootReport{}, fmt.Errorf("core: boot %s on %s: %w", id, nodeID, ctx.Err())
	}
	s.state.RLock()
	im, ok := s.images[id]
	s.state.RUnlock()
	if !ok {
		return BootReport{}, fmt.Errorf("%w: %s", ErrUnknownImage, id)
	}
	r, err := s.replica(nodeID)
	if err != nil {
		return BootReport{}, err
	}
	s.state.RLock()
	lagging, damaged, online := r.lagging, len(r.damaged) > 0, r.online
	s.state.RUnlock()
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
	release, err := s.admit(ctx, r, sp)
	if err != nil {
		return fail(err)
	}
	defer release()
	healed := false
	if !req.SkipCache && (lagging || damaged) {
		// Healing is a compound replica operation; serialize it against
		// other operations on this node and re-check the flags under the
		// lock — a concurrent boot may have healed the node already.
		r.mu.Lock()
		s.state.RLock()
		lagging, damaged = r.lagging, len(r.damaged) > 0
		lastScrub := r.lastScrub
		s.state.RUnlock()
		if lagging {
			if _, err := s.syncNodeGuarded(sp, r); err != nil {
				r.mu.Unlock()
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
			if _, err := s.resilverCtx(context.Background(), sp, r, lastScrub); err != nil {
				r.mu.Unlock()
				return fail(fmt.Errorf("core: resilvering node %s: %w", nodeID, err))
			}
			healed = true
		}
		r.mu.Unlock()
	}
	var ccv *zvol.Volume
	if !req.SkipCache {
		ccv = s.ccVolume(r) // after healing: a full sync swaps the volume
	} else {
		sp.Annotate("uncached", 1)
	}

	cb, err := newChainBackend(s, im, ccv, r.node)
	if err != nil {
		return fail(err)
	}
	// A range the local replica cannot serve (no replica, or rot under
	// the range) may be served by the peer exchange before falling back to
	// the PFS — unless the caching layer is bypassed outright. The fetcher
	// is built at the first such range, so a warm boot builds none.
	if !req.SkipCache && s.cfg.Peer.Enabled {
		cb.peers = peerStart{s: s, ctx: ctx, sp: sp, faults: s.injector()}
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
	// The VM's reads are checked and counted, never kept: the chain lends
	// each range's bytes and only Verify looks at them.
	visit := discard
	var ver *verifier
	if req.Verify {
		ver = &verifier{gen: corpus.NewGenerator(im)}
		visit = ver.check
	}
	for _, e := range im.Layout().Ext {
		if cancelled(ctx, done) {
			return fail(fmt.Errorf("core: boot %s on %s: %w", id, nodeID, ctx.Err()))
		}
		if ver != nil {
			ver.at = e.Off
		}
		if err := cow.Visit(e.Off, e.Len, visit); err != nil && err != io.EOF {
			return fail(fmt.Errorf("core: boot read at %d: %w", e.Off, err))
		}
		rep.ReadBytes += e.Len
		if ver != nil && ver.err != nil {
			return fail(ver.err)
		}
		if ver != nil && ver.mismatch {
			return fail(fmt.Errorf("core: boot data mismatch at %d (+%d)", e.Off, e.Len))
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

// cancelled reports whether ctx is cancelled; done is ctx.Done(), which
// the caller reads once.
func cancelled(ctx context.Context, done <-chan struct{}) bool {
	if done == nil {
		return ctx.Err() != nil
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// discard is a boot's visit when nothing checks the bytes.
func discard([]byte) {}

// verifier is a boot's visit under Verify: it compares each lent piece
// with the image's true content at the offset it stands for.
type verifier struct {
	gen      *corpus.Generator
	at       int64 // image offset of the next lent byte
	err      error // the generator's, if it failed
	mismatch bool
}

func (v *verifier) check(p []byte) {
	want := make([]byte, len(p))
	if _, err := v.gen.ReadAt(want, v.at); err != nil && err != io.EOF {
		v.err = err
	}
	v.mismatch = v.mismatch || !bytes.Equal(p, want)
	v.at += int64(len(p))
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
	if cb.cacheBytes > 0 {
		c := sp.Child(obs.OpCacheRead, cb.node.ID, cb.id)
		c.AddBytes(cb.cacheBytes)
		c.AddSim(float64(cb.cacheBytes) / disk.DAS4Model().ReadBps)
		c.Finish()
	}
	if cb.networkBytes > 0 {
		c := sp.Child(obs.OpPFSRead, cb.node.ID, cb.id)
		c.AddBytes(cb.networkBytes)
		c.AddSim(s.cl.Fabric.TransferSec(cb.networkBytes))
		c.Annotate("indexed_bytes", cb.pfsIndexed)
		c.Annotate("gap_bytes", cb.networkBytes-cb.pfsIndexed)
		c.Finish()
	}
}

// chainBackend is the "cache chained to base" layer under the CoW
// overlay, and the one source ladder a cache object's bytes reach a
// compute node by, per range: rung zero is the node's own replica
// (lent straight out of ccv.Visit), rung one the peer exchange (lent
// straight out of the source replica's Visit), rung two the PFS-hosted
// base VMI, landing in a pooled buffer that is then lent. A boot enters
// at rung zero (Lend, one ladder walk); a resilver enters at rung one
// (readRemote) with a damaged block's range of the object.
//
// Every rung verifies per range, as ZFS verifies where it reads: a range
// overlapping a rotted block of the local replica fails its checksum and
// continues down the ladder while the intact ranges are still served
// locally. A range is lent once, from one rung: rung zero lends nothing
// of a range unless every block under it passed. The rot is left for the
// next scrub to quarantine.
type chainBackend struct {
	id      string
	rawSize int64
	node    *cluster.Node
	pfs     pfsReader
	ccv     *zvol.Volume        // rung zero; nil when the node holds no replica or the caller skips it
	fetch   *peerFetcher        // rung one; nil until built, and always nil unless the peer exchange is enabled
	peers   peerStart           // what a boot's rung one is built from; zero when the boot has none
	ctr     *metrics.CounterSet // nil-safe

	// The image's cache-object layout, shared with the image and never
	// written. Identical on every replica, so it also maps peer fetches
	// and PFS reads of a cache-object range.
	lay *corpus.Layout

	networkBytes int64 // pulled from the PFS
	cacheBytes   int64 // served from the local replica
	peerBytes    int64 // served by neighboring compute nodes
	pfsIndexed   int64 // PFS bytes inside cache extents (peer-servable ranges that fell through)
}

// peerStart is what a boot captures at its start to build its rung one
// at its first remote range: the boot's context and span, and the fault
// injector in force when it started. s is nil when the boot has no rung
// one.
type peerStart struct {
	s      *Squirrel
	ctx    context.Context
	sp     *obs.Span
	faults *fault.Injector
}

// pfsReader is the slice of the PFS API the backend needs.
type pfsReader interface {
	ReadAt(client *cluster.Node, name string, buf []byte, off int64) (int, error)
}

// newChainBackend is the source ladder of im's cache object for node;
// ccv (nil to skip rung zero) is kept only if it holds the object.
func newChainBackend(s *Squirrel, im *corpus.Image, ccv *zvol.Volume, node *cluster.Node) (*chainBackend, error) {
	cb := &chainBackend{
		id: im.ID, rawSize: im.RawSize(), node: node, pfs: s.pfs, ctr: s.ledger.Counters(), lay: im.Layout(),
	}
	// HasObject first: on a node without the replica (every cold boot)
	// Object would build a not-found error only to have it dropped.
	if ccv != nil && ccv.HasObject(im.ID) {
		if obj, err := ccv.Object(im.ID); err == nil {
			if obj.Size != cb.lay.Size {
				return nil, fmt.Errorf("core: cache object %s is %d bytes, extents say %d",
					im.ID, obj.Size, cb.lay.Size)
			}
			cb.ccv = ccv
		}
	}
	return cb, nil
}

// Size implements qcow.Backend.
func (cb *chainBackend) Size() int64 { return cb.rawSize }

// ReadAt implements qcow.Backend as a copy out of the bytes Lend lends.
func (cb *chainBackend) ReadAt(p []byte, off int64) (int, error) {
	n := 0
	err := cb.Lend(off, int64(len(p)), qcow.Window{From: off, To: off + int64(len(p)),
		Fn: func(b []byte) { n += copy(p[n:], b) }})
	return n, err
}

// Lend implements qcow.Lender; it is the one ladder walk. Each range
// inside a cache extent climbs the ladder from rung zero; ranges between
// extents exist only on the PFS.
func (cb *chainBackend) Lend(off, n int64, w qcow.Window) error {
	for n > 0 && off < cb.rawSize {
		k, ext, served := cb.localRange(off, n, w)
		if !served {
			if err := cb.lendRemote(off, k, ext, w); err != nil {
				return err
			}
		}
		off, n = off+k, n-k
	}
	if n > 0 {
		return io.EOF
	}
	return nil
}

// localRange resolves the prefix of [off, off+n) against the cache
// layout and tries rung zero on it. It returns the prefix length k
// (clamped to the image size, the containing extent, or the gap up to the
// next extent), the index of the containing extent (-1 when [off, off+k)
// lies outside every cache extent), and whether the local replica served
// the bytes, decoded, verified and lent to w. When ext >= 0 but served is
// false nothing was lent and the rest of the ladder serves the range — a
// checksum failure under it counts boot.corrupt_local; any other read
// error means the object left the replica mid-boot, equally a miss and
// never a boot error. When ext < 0 only the PFS holds the bytes.
func (cb *chainBackend) localRange(off, n int64, w qcow.Window) (k int64, ext int, served bool) {
	k = min(n, cb.rawSize-off)
	i := cb.lay.Find(off)
	if i == len(cb.lay.Ext) {
		return k, -1, false // past all extents
	}
	e := cb.lay.Ext[i]
	if e.Off > off {
		return min(k, e.Off-off), -1, false // the gap before extent i
	}
	k = min(k, e.Off+e.Len-off)
	if cb.ccv == nil {
		return k, i, false
	}
	at := off
	err := cb.ccv.Visit(cb.id, cb.lay.Base[i]+(off-e.Off), k, func(p []byte) { at = w.Put(at, p) })
	if errors.Is(err, zvol.ErrCorrupt) {
		cb.ctr.Add("boot.corrupt_local", 1)
	}
	if err != nil {
		return k, i, false
	}
	cb.cacheBytes += k
	return k, i, true
}

// lendRemote serves [off, off+k), a range localRange resolved to extent
// ext (-1 for a gap), from off the node: an extent's range climbs the
// rest of the ladder (readRemote); a gap lands in a buffer from readBufs,
// which w is then lent. A PFS read cut short lends what it delivered and
// returns io.EOF.
func (cb *chainBackend) lendRemote(off, k int64, ext int, w qcow.Window) error {
	if ext >= 0 {
		at := off
		return cb.readRemote(cb.lay.Base[ext]+(off-cb.lay.Ext[ext].Off), k, func(p []byte) { at = w.Put(at, p) })
	}
	bp := getReadBuf(k)
	defer readBufs.Put(bp)
	buf := (*bp)[:k]
	read, err := cb.pfsRead(buf, off)
	w.Put(off, buf[:read])
	return err
}

// readBufs recycles the buffers the PFS rung lands a range in: the
// bytes are lent and never kept, so a buffer is free again once its
// range has been lent.
var readBufs sync.Pool // *[]byte

// getReadBuf returns a buffer of at least n bytes, contents unspecified;
// the caller Puts the pointer back into readBufs. A new buffer holds at
// least a default cluster, the most a boot asks of one rung at once, so
// the pool's buffers fit every range.
func getReadBuf(n int64) *[]byte {
	if bp, _ := readBufs.Get().(*[]byte); bp != nil && int64(cap(*bp)) >= n {
		return bp
	}
	buf := make([]byte, max(n, qcow.DefaultClusterSize))
	return &buf
}

// readRemote lends fn [base, base+n) of the cache object from off the
// node, in order and once: the peer exchange lends a source replica's own
// bytes; failing that, the PFS fills a buffer from readBufs, each covered
// extent slice mapping linearly back to an image range (a boot's range
// lies in one extent; a resilvered block may span several), and fn is
// lent the buffer. On an error fn was lent nothing.
func (cb *chainBackend) readRemote(base, n int64, fn func(p []byte)) error {
	if p := cb.peers; cb.fetch == nil && p.s != nil {
		cb.fetch = p.s.newPeerFetcher(p.ctx, p.sp, "peerfetch", cb.id, cb.node, p.faults)
	}
	if cb.fetch != nil && cb.fetch.fetch(base, n, fn) {
		cb.peerBytes += n
		return nil
	}
	bp := getReadBuf(n)
	defer readBufs.Put(bp)
	buf := (*bp)[:n]
	for p, at := buf, base; len(p) > 0; {
		i := cb.lay.FindBase(at)
		if i == len(cb.lay.Ext) {
			return fmt.Errorf("core: offset %d is outside cache object %s", at, cb.id)
		}
		d := at - cb.lay.Base[i]
		k := min(int64(len(p)), cb.lay.Ext[i].Len-d)
		if _, err := cb.pfsRead(p[:k], cb.lay.Ext[i].Off+d); err != nil {
			return err
		}
		cb.pfsIndexed += k
		p, at = p[k:], at+k
	}
	fn(buf)
	return nil
}

// pfsRead is rung two: image range [off, off+len(p)) of the base VMI.
// A read the PFS cuts short returns the bytes it did deliver with io.EOF.
func (cb *chainBackend) pfsRead(p []byte, off int64) (int, error) {
	read, err := cb.pfs.ReadAt(cb.node, cb.id, p, off)
	if err != nil && err != io.EOF {
		return 0, err
	}
	cb.networkBytes += int64(read)
	if read != len(p) {
		return read, io.EOF
	}
	return read, nil
}
