package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"repro/internal/block"
	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/qcow"
	"repro/internal/store"
	"repro/internal/wireclient"
	"repro/internal/zvol"
)

// span is one timed call at a layer boundary. Spans of one replayed op
// share Op. Parent is the span that logically caused this one: children
// are re-executions of the parent's work on identical inputs, run after
// it, so a parent's self time is its duration minus its children's.
// Parent 0 is a root; Parent -1 marks a side measurement on the op's
// inputs that is no part of the op's own stack.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) us() float64 { return float64(s.EndNs-s.StartNs) / 1e3 }

const sideSpan = -1

// dialReps is how many connects wireclient.dial_ms is the median of.
const dialReps = 20

// overheadPairs is how many on/off pairs bench.trace_overhead_pct rests
// on.
const overheadPairs = 200

// recorder keeps spans in memory; they are written out when the run
// ends. With on false it still times the call but records nothing,
// which is the baseline bench.trace_overhead_pct compares against.
type recorder struct {
	on    bool
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{on: true, t0: time.Now()} }

// time runs fn as a span and returns the span's ID (0 when recording is
// off) and duration.
func (r *recorder) time(name string, parent, op int, fn func()) (int, time.Duration) {
	start := time.Since(r.t0)
	fn()
	end := time.Since(r.t0)
	if !r.on {
		return 0, end - start
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNs: int64(start), EndNs: int64(end)})
	return id, end - start
}

// durations groups span durations in microseconds by span name.
func (r *recorder) durations() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range r.spans {
		out[s.Name] = append(out[s.Name], s.us())
	}
	return out
}

func (r *recorder) write(path string) error {
	js, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(js, '\n'), 0o644)
}

// replay is one workload's traced replay: its spans, the exact counts
// taken at the same boundaries, and the check tally.
type replay struct {
	rec    *recorder
	counts map[string]float64
	fl     *failures
	// durs is rec.durations(), computed on first use once the replay is
	// over.
	durs map[string][]float64

	// allocBytes/allocs are runtime.MemStats deltas summed around the
	// replay's core.<op> calls (single-threaded: nothing else allocates).
	allocBytes, allocs uint64
	// lastReq/lastRep are the final boot's bodies, for the frame and
	// JSON probes.
	lastReq core.BootRequest
	lastRep core.BootReport
}

// measureAllocs runs fn and adds what it allocated to the replay's
// tally. ReadMemStats stops the world, so it stays outside every span.
func (rp *replay) measureAllocs(fn func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	rp.allocBytes += after.TotalAlloc - before.TotalAlloc
	rp.allocs += after.Mallocs - before.Mallocs
}

func newReplay() *replay {
	return &replay{rec: newRecorder(), counts: map[string]float64{}, fl: &failures{}}
}

// gcEvery is how many replayed ops run between forced collections.
const gcEvery = 8

// quietGC turns the collector's own pacing off for a replay and returns
// the function that turns it back on. betweenOps then collects every
// gcEvery ops, outside every span: otherwise whichever span happens to
// allocate past the pacer's goal pays for the garbage of all the
// others, and a parent minus its children stops meaning self time.
// What the collector costs end to end shows in the untraced run; here
// it shows as core.*_alloc_kb_per_op.
func quietGC() (restore func()) {
	old := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(old) }
}

func betweenOps(i int) {
	if i%gcEvery == 0 {
		runtime.GC()
	}
}

// durations is the finished replay's span durations by name.
func (rp *replay) durations() map[string][]float64 {
	if rp.durs == nil {
		rp.durs = rp.rec.durations()
	}
	return rp.durs
}

// p50 is the median duration, in microseconds, of the spans named name.
func (rp *replay) p50(name string) float64 { return median(rp.durations()[name]) }

// sum is the total duration, in microseconds, of the spans named name.
func (rp *replay) sum(name string) float64 {
	var t float64
	for _, d := range rp.durations()[name] {
		t += d
	}
	return t
}

// tracedDeployment is an in-process deployment with one client
// connected and the workload's set-up applied.
type tracedDeployment struct {
	*inproc
	*session
}

func startTraced(w *workload, fl *failures) (*tracedDeployment, error) {
	d, err := startInproc(w)
	if err != nil {
		return nil, err
	}
	sess, err := connect(d, w, 1, fl)
	if err != nil {
		return nil, err
	}
	return &tracedDeployment{inproc: d, session: sess}, nil
}

// storedBlock is one nonzero block of a cache object in its stored
// form, rebuilt from the volume's own block table so that the steps of
// zvol's read path can be re-executed one layer at a time.
type storedBlock struct {
	addr       uint64 // in blockSet.st
	payload    []byte
	logLen     int
	compressed bool
}

type blockSet struct {
	st     *store.Store
	blocks []storedBlock
}

// rebuildBlocks reproduces the stored form of every nonzero block of
// object name on v: the logical bytes the volume returns, recompressed
// by the volume's codec where the volume stored them compressed. The
// rebuilt payload must have the stored payload's length, or the
// re-execution would not be on identical inputs.
func rebuildBlocks(v *zvol.Volume, name string) (*blockSet, error) {
	infos, err := v.BlockInfos(name)
	if err != nil {
		return nil, err
	}
	codec, err := compress.Get(v.Config().Codec)
	if err != nil {
		return nil, err
	}
	bs := &blockSet{st: store.New()}
	for i, bi := range infos {
		if bi.Zero {
			continue
		}
		data, _, _, err := v.ReadBlock(name, i)
		if err != nil {
			return nil, err
		}
		payload := data
		if bi.Compressed {
			payload = codec.Compress(data)
		}
		if len(payload) != int(bi.PhysLen) {
			return nil, fmt.Errorf("%s block %d: rebuilt payload is %d bytes, stored is %d", name, i, len(payload), bi.PhysLen)
		}
		bs.blocks = append(bs.blocks, storedBlock{addr: bs.st.Alloc(payload), payload: payload, logLen: len(data), compressed: bi.Compressed})
	}
	return bs, nil
}

var hashSink block.Hash

// readSteps re-executes, as children of parent, the three layer calls
// zvol makes per block when it reads an object — the store read, the
// two checksums (stored payload, then logical content), the decode —
// once for each of the objects materializations parent covered.
func (bs *blockSet) readSteps(rec *recorder, parent, op int, codec compress.Codec, objects int, fl *failures) {
	rec.time("store.read", parent, op, func() {
		for n := 0; n < objects; n++ {
			for _, b := range bs.blocks {
				if _, err := bs.st.Read(b.addr); err != nil {
					fl.fail("store read: %v", err)
				}
			}
		}
	})
	logical := make([][]byte, len(bs.blocks))
	rec.time("compress.decompress", parent, op, func() {
		for n := 0; n < objects; n++ {
			for i, b := range bs.blocks {
				logical[i] = b.payload
				if b.compressed {
					data, err := codec.Decompress(b.payload, b.logLen)
					if err != nil {
						fl.fail("decompress: %v", err)
					}
					logical[i] = data
				}
			}
		}
	})
	rec.time("block.hash", parent, op, func() {
		for n := 0; n < objects; n++ {
			for i, b := range bs.blocks {
				hashSink = block.HashOf(b.payload)
				hashSink = block.HashOf(logical[i])
			}
		}
	})
}

// extentBackend is the backing store core.Boot chains its CoW overlay
// onto, rebuilt from public parts: ranges inside the image's cache
// extents are served from the materialized cache object, and nothing
// else is ever read, because cache extents are cluster-aligned. It
// counts the extent ranges served, which on a cold boot is the number
// of peer fetches.
type extentBackend struct {
	rawSize int64
	data    []byte
	offs    []int64 // extent start offsets in the image, ascending
	lens    []int64
	bases   []int64 // offset of each extent within data
	ranges  int
}

func newExtentBackend(im *corpus.Image, data []byte) (*extentBackend, error) {
	eb := &extentBackend{rawSize: im.RawSize(), data: data}
	var base int64
	for _, e := range im.CacheExtentsSorted() {
		eb.offs = append(eb.offs, e.Off)
		eb.lens = append(eb.lens, e.Len)
		eb.bases = append(eb.bases, base)
		base += e.Len
	}
	if base != int64(len(data)) {
		return nil, fmt.Errorf("cache object %s is %d bytes, extents say %d", im.ID, len(data), base)
	}
	return eb, nil
}

func (eb *extentBackend) Size() int64 { return eb.rawSize }

func (eb *extentBackend) ReadAt(p []byte, off int64) (int, error) {
	total := 0
	for len(p) > 0 {
		// First extent ending after off, as core's backend finds it.
		i := sort.Search(len(eb.offs), func(i int) bool { return eb.offs[i]+eb.lens[i] > off })
		if i == len(eb.offs) || eb.offs[i] > off {
			return total, fmt.Errorf("read at %d falls outside the cache extents", off)
		}
		n := int64(len(p))
		if rem := eb.offs[i] + eb.lens[i] - off; n > rem {
			n = rem
		}
		src := eb.bases[i] + (off - eb.offs[i])
		copy(p[:n], eb.data[src:src+n])
		eb.ranges++
		p = p[n:]
		off += n
		total += int(n)
	}
	return total, nil
}

// qcowReplay re-executes the image-chain half of a boot: an empty CoW
// overlay, configured as core.Boot configures it, over the cache
// object, with the image's boot trace read through it. It returns the
// bytes the overlay fetched from below, the bytes the trace asked for,
// and the extent ranges the backend served.
func qcowReplay(im *corpus.Image, data []byte) (fetched, asked int64, ranges int, err error) {
	eb, err := newExtentBackend(im, data)
	if err != nil {
		return 0, 0, 0, err
	}
	cow, err := qcow.NewOverlay(eb, core.DefaultConfig().ClusterSize, false)
	if err != nil {
		return 0, 0, 0, err
	}
	buf := make([]byte, 0, 64<<10)
	for _, e := range im.BootTrace() {
		if int64(cap(buf)) < e.Len {
			buf = make([]byte, e.Len)
		}
		if _, err := cow.ReadAt(buf[:e.Len], e.Off); err != nil && err != io.EOF {
			return 0, 0, 0, err
		}
		asked += e.Len
	}
	return cow.BackingReads, asked, eb.ranges, nil
}

// replayBoots is the traced replay of warm_boot and cold_boot: per op,
// wire.boot ⊃ core.boot ⊃ the layer calls a boot makes.
func replayBoots(w *workload, seq []op) (*replay, error) {
	rp := newReplay()
	td, err := startTraced(w, rp.fl)
	if err != nil {
		return nil, err
	}
	defer td.close()
	sq := td.local.Squirrel()
	codec, err := compress.Get(sq.SCVolume().Config().Codec)
	if err != nil {
		return nil, err
	}
	// The peer exchange's policy as squirreld -peers sets it, and a
	// fabric of the deployment's shape to account transfers on: the
	// deployment's own cluster is private to it.
	slots := core.DefaultConfig().Peer.MaxServeSlots
	fabric, err := cluster.New(cluster.GigE, 4, w.nodes)
	if err != nil {
		return nil, err
	}
	blocks := map[string]*blockSet{}
	ctx := context.Background()
	ck := &checker{w: w, fl: rp.fl, tuples: map[string]bootTuple{}}
	cold := w.coldNodes > 0

	var fetched, asked, peerBytes, netBytes, rxBytes, acquires, readBytes int64
	var fallbacks int

	// peerSteps re-executes, as children of a cold boot's core span, what
	// the peer exchange did for it: per extent range the boot read, one
	// index lookup with slot reservation and one unicast transfer. The
	// index picks the least-loaded holder each time, so the lookups
	// release the bytes each range served — the load then evolves as it
	// did in the boot — and the distinct peers that answered come back:
	// the boot materialized the object once on each of them.
	rangesOf := map[string]int{}
	peerSteps := func(cspan, i int, im *corpus.Image, bootNode int, servedBy string, peerBytes int64) ([]string, error) {
		ranges, known := rangesOf[im.ID]
		if !known {
			vol, err := sq.CCVolume(servedBy)
			if err != nil {
				return nil, err
			}
			data, err := vol.ReadObject(im.ID)
			if err != nil {
				return nil, err
			}
			if _, _, ranges, err = qcowReplay(im, data); err != nil {
				return nil, err
			}
			rangesOf[im.ID] = ranges
		}
		var holders []string
		isBootNode := func(id string) bool { return id == td.info.ComputeNodes[bootNode] }
		per := peerBytes / int64(ranges)
		rp.rec.time("peer.acquire", cspan, i, func() {
			for k := 0; k < ranges; k++ {
				src, release, ok, _ := sq.PeerIndex().Acquire(im.ID, slots, isBootNode)
				if !ok {
					rp.fl.fail("peer index has no holder of %s for %s", im.ID, td.info.ComputeNodes[bootNode])
					return
				}
				release(per)
				if !slices.Contains(holders, src) {
					holders = append(holders, src)
				}
			}
		})
		rp.rec.time("cluster.unicast", cspan, i, func() {
			for k := 0; k < ranges; k++ {
				fabric.Unicast(fabric.Compute[w.nodes-1], fabric.Compute[bootNode], per)
			}
		})
		acquires += int64(ranges)
		return holders, nil
	}

	defer quietGC()()
	for i, o := range seq[:w.tracedOps] {
		betweenOps(i)
		im, node := td.images[o.image], td.info.ComputeNodes[o.node]
		req := core.BootRequest{Image: im.ID, Node: node}
		rp.fl.attempt(2)

		rx0, _ := td.local.ComputeRx()
		var wireRep, coreRep core.BootReport
		var wireErr, coreErr error
		root, _ := rp.rec.time("wire.boot", 0, i, func() { wireRep, wireErr = td.clients[0].Boot(ctx, req) })
		rx1, _ := td.local.ComputeRx()
		rxBytes += rx1 - rx0
		var cspan int
		rp.measureAllocs(func() {
			cspan, _ = rp.rec.time("core.boot", root, i, func() { coreRep, coreErr = td.local.Boot(ctx, req) })
		})
		if wireErr != nil || coreErr != nil {
			rp.fl.fail("boot %s on %s: wire %v, core %v", im.ID, node, wireErr, coreErr)
			continue
		}
		ck.boot(wireRep)
		peerNode := wireRep.PeerNode
		rp.lastReq, rp.lastRep = req, wireRep
		// Which peer serves depends on the load the earlier boots left,
		// so only the byte provenance must agree between the two calls.
		wireRep.PeerNode, coreRep.PeerNode = "", ""
		if wireRep != coreRep {
			rp.fl.fail("boot %s on %s: wire report %+v, core report %+v", im.ID, node, wireRep, coreRep)
		}
		peerBytes += wireRep.PeerBytes
		netBytes += wireRep.NetworkBytes
		fallbacks += wireRep.PeerFallbacks

		// The replicas the boot read: a warm boot materializes the
		// node's own, a cold one the object on every peer that served it.
		holders := []string{node}
		if cold {
			if holders, err = peerSteps(cspan, i, im, o.node, peerNode, wireRep.PeerBytes); err != nil {
				return nil, err
			}
		}
		var data []byte
		var vol *zvol.Volume
		zspan, _ := rp.rec.time("zvol.read_object", cspan, i, func() {
			for _, h := range holders {
				if vol, err = sq.CCVolume(h); err != nil {
					return
				}
				if data, err = vol.ReadObject(im.ID); err != nil {
					return
				}
				readBytes += int64(len(data))
			}
		})
		if err != nil {
			return nil, err
		}
		bs := blocks[im.ID]
		if bs == nil {
			if bs, err = rebuildBlocks(vol, im.ID); err != nil {
				return nil, err
			}
			blocks[im.ID] = bs
		}
		bs.readSteps(rp.rec, zspan, i, codec, len(holders), rp.fl)

		var f, a int64
		rp.rec.time("qcow.replay", cspan, i, func() { f, a, _, err = qcowReplay(im, data) })
		if err != nil {
			return nil, err
		}
		fetched += f
		asked += a
		if a != wireRep.ReadBytes {
			rp.fl.fail("boot %s: trace replay read %d bytes, the boot reported %d", im.ID, a, wireRep.ReadBytes)
		}
	}
	if !cold {
		// Tracing overhead: the same wire call with span recording on
		// and off, alternating which goes first.
		var on, off []float64
		for i, o := range seq[:min(w.tracedOps, overheadPairs)] {
			req := core.BootRequest{Image: td.images[o.image].ID, Node: td.info.ComputeNodes[o.node]}
			betweenOps(i)
			for k := 0; k < 2; k++ {
				rp.rec.on = (i+k)%2 == 0
				_, d := rp.rec.time("wire.boot.overhead", sideSpan, i, func() { _, err = td.clients[0].Boot(ctx, req) })
				if err != nil {
					return nil, err
				}
				if rp.rec.on {
					on = append(on, float64(d))
				} else {
					off = append(off, float64(d))
				}
			}
		}
		rp.rec.on = true
		rp.counts["trace_overhead_pct"] = 100 * (median(on) - median(off)) / median(off)
	}
	n := float64(w.tracedOps)
	rp.counts["qcow.overfetch_ratio"] = float64(fetched) / float64(asked)
	rp.counts["read_bytes"] = float64(readBytes)
	if cold {
		rp.counts["peer.hit_ratio"] = float64(peerBytes) / float64(peerBytes+netBytes)
		rp.counts["peer.fallbacks_per_boot"] = float64(fallbacks) / n
		rp.counts["compute_rx_kb_per_op"] = float64(rxBytes) / 1024 / n
		rp.counts["acquires"] = float64(acquires)
	}
	return rp, nil
}

// registerVolumes is a third set of cVolumes — storage side plus one
// per compute node — on which the steps of a registration are
// re-executed one layer at a time.
type registerVolumes struct {
	sc     *zvol.Volume
	cc     []*zvol.Volume
	full   *zvol.Volume // applies every stream by the verifying Receive
	one    *zvol.Volume // applies every prepared stream, alone and serially
	fabric *cluster.Cluster
	prev   string
}

func newRegisterVolumes(nodes int) (*registerVolumes, error) {
	rv := &registerVolumes{}
	vols := make([]*zvol.Volume, nodes+3)
	for i := range vols {
		v, err := zvol.New(core.DefaultConfig().Volume)
		if err != nil {
			return nil, err
		}
		vols[i] = v
	}
	rv.sc, rv.full, rv.one, rv.cc = vols[0], vols[1], vols[2], vols[3:]
	var err error
	rv.fabric, err = cluster.New(cluster.GigE, 4, nodes)
	return rv, err
}

// replayRegisters is the traced replay of register_stream. A
// registration cannot be repeated on one deployment, so wire.register
// runs against a served deployment and core.register against a second,
// identical one that has seen the same registrations; the layer calls
// run on a third set of volumes that has, too.
func replayRegisters(w *workload, seq []op) (*replay, error) {
	rp := newReplay()
	td, err := startTraced(w, rp.fl)
	if err != nil {
		return nil, err
	}
	defer td.close()
	twin, err := startInproc(w)
	if err != nil {
		return nil, err
	}
	defer twin.Stop()
	rv, err := newRegisterVolumes(w.nodes)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	var cacheBytes, diffBytes, rxBytes, written int64
	defer quietGC()()
	for i, o := range seq[:w.tracedOps] {
		betweenOps(i)
		im, at := td.images[o.image], registerAt(o.image)
		rp.fl.attempt(2)

		rx0, _ := td.local.ComputeRx()
		var wireRep, coreRep core.RegisterReport
		var wireErr, coreErr error
		root, _ := rp.rec.time("wire.register", 0, i, func() { wireRep, wireErr = td.clients[0].Register(ctx, im.ID, at) })
		rx1, _ := td.local.ComputeRx()
		rxBytes += rx1 - rx0
		var cspan int
		rp.measureAllocs(func() {
			cspan, _ = rp.rec.time("core.register", root, i, func() { coreRep, coreErr = twin.local.Register(ctx, im.ID, at) })
		})
		checkRegister(rp.fl, w, wireRep, wireErr)
		if coreErr != nil || !reflect.DeepEqual(wireRep, coreRep) {
			rp.fl.fail("register %s: wire report %+v, core report %+v, %v", im.ID, wireRep, coreRep, coreErr)
		}
		cacheBytes += wireRep.CacheBytes
		diffBytes += wireRep.DiffBytes

		// The steps of core.register, in its order, on the third set.
		var err error
		wspan, _ := rp.rec.time("zvol.write_object", cspan, i, func() { _, err = rv.sc.WriteObject(im.ID, im.CacheReader()) })
		if err != nil {
			return nil, err
		}
		infos, err := rv.sc.BlockInfos(im.ID)
		if err != nil {
			return nil, err
		}
		for _, bi := range infos {
			if !bi.Zero {
				written++
			}
		}
		// Generating the image's bytes is charged inside WriteObject;
		// timed apart so that it is not mistaken for volume cost.
		rp.rec.time("corpus.cache_reader", wspan, i, func() { _, err = io.Copy(io.Discard, im.CacheReader()) })
		if err != nil {
			return nil, err
		}
		snap := fmt.Sprintf("cVol@%06d-%s", i+1, im.ID)
		rp.rec.time("zvol.snapshot", cspan, i, func() { _, err = rv.sc.Snapshot(snap, at) })
		if err != nil {
			return nil, err
		}
		var st *zvol.Stream
		rp.rec.time("zvol.send", cspan, i, func() { st, err = rv.sc.Send(rv.prev, snap) })
		if err != nil {
			return nil, err
		}
		rv.prev = snap
		var wire bytes.Buffer
		rp.rec.time("zvol.stream_encode", cspan, i, func() { _, err = st.Encode(&wire) })
		if err != nil {
			return nil, err
		}
		if int64(wire.Len()) != wireRep.DiffBytes {
			rp.fl.fail("register %s: re-encoded stream is %d bytes, the registration shipped %d", im.ID, wire.Len(), wireRep.DiffBytes)
		}
		var prep *zvol.PreparedStream
		rp.rec.time("zvol.prepare", cspan, i, func() { prep = rv.sc.Prepare(st) })
		rp.rec.time("cluster.multicast", cspan, i, func() {
			rv.fabric.MulticastStream("register:"+snap, rv.fabric.Storage[0], rv.fabric.Compute, wire.Bytes(), nil)
		})
		// core applies the replicas' legs on a worker pool; the child
		// covers the interval the pool takes, as the parent's does.
		errs := make([]error, len(rv.cc))
		rp.rec.time("zvol.receive_prepared_all", cspan, i, func() {
			conc.ForEach(len(rv.cc), 0, func(k int) { errs[k] = rv.cc[k].ReceivePrepared(prep) })
		})
		for _, e := range errs {
			if e != nil {
				return nil, e
			}
		}

		// Side measurements on this registration's stream: what one
		// decode, one verifying receive, one prepared receive cost.
		var decoded *zvol.Stream
		rp.rec.time("zvol.stream_decode", sideSpan, i, func() { decoded, err = zvol.DecodeStream(bytes.NewReader(wire.Bytes())) })
		if err != nil {
			return nil, err
		}
		rp.rec.time("zvol.receive", sideSpan, i, func() { err = rv.full.Receive(decoded) })
		if err != nil {
			return nil, err
		}
		rp.rec.time("zvol.receive_prepared", sideSpan, i, func() { err = rv.one.ReceivePrepared(prep) })
		if err != nil {
			return nil, err
		}
	}
	n := float64(w.tracedOps)
	rp.counts["zvol.stream_bytes_per_cache_byte"] = float64(diffBytes) / float64(cacheBytes)
	// Of the nonzero blocks the registrations wrote, the share the DDT
	// already held.
	rp.counts["dedup.hit_ratio"] = 1 - float64(rv.sc.Stats().UniqueBlocks)/float64(written)
	rp.counts["compute_rx_kb_per_op"] = float64(rxBytes) / 1024 / n
	rp.counts["stream_bytes"] = float64(diffBytes)
	rp.counts["cache_bytes"] = float64(cacheBytes)
	return rp, nil
}

// replayControl is the traced replay of control_rpc: per op, wire.<rpc>
// ⊃ core.<rpc>, and under core.stats the per-volume walks it makes.
func replayControl(w *workload, seq []op) (*replay, error) {
	rp := newReplay()
	td, err := startTraced(w, rp.fl)
	if err != nil {
		return nil, err
	}
	defer td.close()
	sq := td.local.Squirrel()
	vols := []*zvol.Volume{sq.SCVolume()}
	for _, n := range td.info.ComputeNodes {
		v, err := sq.CCVolume(n)
		if err != nil {
			return nil, err
		}
		vols = append(vols, v)
	}
	for i := 0; i < dialReps; i++ {
		var c *wireclient.Client
		rp.rec.time("wireclient.dial", sideSpan, i, func() { c, err = wireclient.Dial(wireclient.Options{Addr: td.Addr()}) })
		if err != nil {
			return nil, err
		}
		_ = c.Close()
	}
	defer quietGC()()
	for i, o := range seq[:w.tracedOps] {
		betweenOps(i)
		rp.fl.attempt(2)
		var werr, cerr error
		var wv, cv any
		switch o.kind {
		case opComputeRx:
			root, _ := rp.rec.time("wire.compute_rx", 0, i, func() { wv, werr = td.clients[0].ComputeRx() })
			rp.rec.time("core.compute_rx", root, i, func() { cv, cerr = td.local.ComputeRx() })
		case opHealth:
			root, _ := rp.rec.time("wire.health", 0, i, func() { wv, werr = td.clients[0].Health() })
			rp.rec.time("core.health", root, i, func() { cv, cerr = td.local.Health() })
		case opInfo:
			root, _ := rp.rec.time("wire.info", 0, i, func() { wv, werr = td.clients[0].Info() })
			rp.rec.time("core.info", root, i, func() { cv, cerr = td.local.Info() })
		case opStats:
			root, _ := rp.rec.time("wire.stats", 0, i, func() { wv, werr = td.clients[0].Stats() })
			cspan, _ := rp.rec.time("core.stats", root, i, func() { cv, cerr = td.local.Stats() })
			rp.rec.time("zvol.stats_all", cspan, i, func() {
				for _, v := range vols {
					v.Stats()
				}
			})
		}
		if werr != nil || cerr != nil || !reflect.DeepEqual(wv, cv) {
			rp.fl.fail("%s: wire %+v (%v), core %+v (%v)", o.kind, wv, werr, cv, cerr)
		}
	}
	rp.counts["volumes"] = float64(len(vols))
	return rp, nil
}
