package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/block"
	"repro/internal/cluster"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dedup"
	"repro/internal/store"
	"repro/internal/wireproto"
	"repro/internal/zvol"
)

// probeSize is how much corpus data the layer probes run over.
type probeSize struct {
	// blocks caps the cache blocks (64 KB each) of the codec, hash,
	// store and DDT probes: enough that one batch is milliseconds, few
	// enough that a batch repeats many times inside the budget.
	blocks int
	// images is how many images' caches the volume write probes store.
	images int
}

var fullProbes = probeSize{blocks: 96, images: 16}

// minBatches is the least a probe repeats, whatever the budget.
const minBatches = 5

// probe runs batch repeatedly until budget has elapsed, at least
// minBatches times, and returns the median batch time in nanoseconds.
func probe(budget time.Duration, batch func()) float64 {
	var ns []float64
	for start := time.Now(); len(ns) < minBatches || time.Since(start) < budget; {
		t := time.Now()
		batch()
		ns = append(ns, float64(time.Since(t)))
	}
	return median(ns)
}

// mbps converts bytes moved in ns nanoseconds to MB/s (10^6 bytes).
func mbps(bytes int64, ns float64) float64 { return float64(bytes) / 1e6 / (ns / 1e9) }

// cacheBlocks collects up to max nonzero cache blocks of the volume
// block size from images, in corpus order: the workload's own data.
func cacheBlocks(images []*corpus.Image, max int) ([][]byte, error) {
	var out [][]byte
	for _, im := range images {
		err := im.CacheBlocks(core.DefaultConfig().Volume.BlockSize, func(_ int64, data []byte, zero bool) error {
			if !zero && len(out) < max {
				out = append(out, append([]byte(nil), data...))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(out) >= max {
			break
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("corpus has no nonzero cache blocks")
	}
	return out, nil
}

// layerProbes times the leaf layers directly, each for budget, on the
// corpus' own cache blocks and cache objects, with the volume
// configuration core deploys.
func layerProbes(budget time.Duration, size probeSize, images []*corpus.Image, lastReq core.BootRequest, lastRep core.BootReport) (map[string]float64, error) {
	m := map[string]float64{}
	vcfg := core.DefaultConfig().Volume
	codec, err := compress.Get(vcfg.Codec)
	if err != nil {
		return nil, err
	}
	blocks, err := cacheBlocks(images, size.blocks)
	if err != nil {
		return nil, err
	}
	var logical, stored int64
	comp := make([][]byte, len(blocks))
	for i, b := range blocks {
		comp[i] = codec.Compress(b)
		logical += int64(len(b))
		stored += int64(len(comp[i]))
	}
	nb := float64(len(blocks))

	// compress: the write-side and read-side codec ceilings.
	m["compress.gzip6_compress_mbps"] = mbps(logical, probe(budget, func() {
		for _, b := range blocks {
			codec.Compress(b)
		}
	}))
	var derr error
	m["compress.gzip6_decompress_mbps"] = mbps(logical, probe(budget, func() {
		for i, c := range comp {
			if _, err := codec.Decompress(c, len(blocks[i])); err != nil {
				derr = err
			}
		}
	}))
	if derr != nil {
		return nil, derr
	}
	m["compress.gzip6_ratio"] = float64(logical) / float64(stored)

	// block: the checksum every stored and every logical block pays.
	m["block.hash_mbps"] = mbps(logical, probe(budget, func() {
		for _, b := range blocks {
			hashSink = block.HashOf(b)
		}
	}))

	// store: one allocation per new block, one read per block read.
	m["store.alloc_ns"] = probe(budget, func() {
		st := store.New()
		for _, c := range comp {
			st.Alloc(c)
		}
	}) / nb
	st := store.New()
	addrs := make([]uint64, len(comp))
	for i, c := range comp {
		addrs[i] = st.Alloc(c)
	}
	m["store.read_ns"] = probe(budget, func() {
		for _, a := range addrs {
			if _, err := st.Read(a); err != nil {
				derr = err
			}
		}
	}) / nb
	if derr != nil {
		return nil, derr
	}

	// dedup: a lookup per written block, a reference per new one.
	hashes := make([]block.Hash, len(blocks))
	for i, b := range blocks {
		hashes[i] = block.HashOf(b)
	}
	reference := func(t *dedup.Table) {
		for i, h := range hashes {
			t.Reference(h, addrs[i], int32(len(comp[i])), int32(len(blocks[i])), true, h)
		}
	}
	m["dedup.reference_ns"] = probe(budget, func() { reference(dedup.NewTable()) }) / nb
	table := dedup.NewTable()
	reference(table)
	m["dedup.lookup_ns"] = probe(budget, func() {
		for _, h := range hashes {
			table.Lookup(h)
		}
	}) / nb

	// zvol writes: a fresh volume (every block new: hash, compress,
	// allocate) and, measured apart, the same objects again under new
	// names (every block a DDT hit), which a single looped write bench
	// would silently turn into.
	if len(images) > size.images {
		images = images[:size.images]
	}
	caches := make([][]byte, len(images))
	var cacheBytes int64
	for i, im := range images {
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(im.CacheReader()); err != nil {
			return nil, err
		}
		caches[i] = buf.Bytes()
		cacheBytes += int64(buf.Len())
	}
	var vol *zvol.Volume
	writeAll := func(v *zvol.Volume, gen int) {
		for i, c := range caches {
			if _, err := v.WriteObject(fmt.Sprintf("%s#%d", images[i].ID, gen), bytes.NewReader(c)); err != nil {
				derr = err
			}
		}
	}
	m["zvol.write_cold_mbps"] = mbps(cacheBytes, probe(budget, func() {
		if vol, err = zvol.New(vcfg); err != nil {
			derr = err
			return
		}
		writeAll(vol, 0)
	}))
	gen := 0
	m["zvol.rewrite_mbps"] = mbps(cacheBytes, probe(budget, func() {
		gen++
		writeAll(vol, gen)
	}))
	if derr != nil {
		return nil, derr
	}

	// zvol read allocation: bytes allocated per byte returned.
	var before, after runtime.MemStats
	var read int64
	runtime.ReadMemStats(&before)
	for i := range caches {
		data, err := vol.ReadObject(fmt.Sprintf("%s#0", images[i].ID))
		if err != nil {
			return nil, err
		}
		read += int64(len(data))
	}
	runtime.ReadMemStats(&after)
	m["zvol.read_alloc_bytes_per_byte"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(read)

	// cluster: reading an image's first clusters from the striped PFS
	// (content generation included, as on a cache miss).
	fabric, err := cluster.New(cluster.GigE, 4, 8)
	if err != nil {
		return nil, err
	}
	pfs, err := cluster.NewPFS(fabric, 2, 2, 0)
	if err != nil {
		return nil, err
	}
	im := images[0]
	if err := pfs.AddFile(im.ID, im.RawSize(), im.ReadAtFunc()); err != nil {
		return nil, err
	}
	buf := make([]byte, core.DefaultConfig().ClusterSize)
	var pfsBytes int64
	for _, e := range im.CacheExtentsSorted() {
		pfsBytes += e.Len
	}
	m["cluster.pfs_read_mbps"] = mbps(pfsBytes, probe(budget, func() {
		for _, e := range im.CacheExtentsSorted() {
			for off := e.Off; off < e.Off+e.Len; off += int64(len(buf)) {
				n := min(int64(len(buf)), e.Off+e.Len-off)
				if _, err := pfs.ReadAt(fabric.Compute[0], im.ID, buf[:n], off); err != nil {
					derr = err
				}
			}
		}
	}))
	if derr != nil {
		return nil, derr
	}

	// wireproto and ctlplane: one Boot reply framed and parsed, and the
	// JSON bodies of one Boot exchange, as daemon and wireclient build
	// them.
	reqJS, err := json.Marshal(lastReq)
	if err != nil {
		return nil, err
	}
	repJS, err := json.Marshal(lastRep)
	if err != nil {
		return nil, err
	}
	frame := wireproto.Frame{Type: wireproto.TBoot, Flags: wireproto.FlagResponse, ReqID: 1, Payload: repJS}
	enc := wireproto.AppendFrame(nil, frame)
	m["wireproto.frame_bytes_per_op"] = float64(len(enc))
	const reps = 256
	scratch := make([]byte, 0, len(enc))
	m["wireproto.frame_encode_ns"] = probe(budget, func() {
		for i := 0; i < reps; i++ {
			scratch = wireproto.AppendFrame(scratch[:0], frame)
		}
	}) / reps
	m["wireproto.frame_decode_ns"] = probe(budget, func() {
		for i := 0; i < reps; i++ {
			if _, err := wireproto.ReadFrame(bytes.NewReader(enc)); err != nil {
				derr = err
			}
		}
	}) / reps
	m["ctlplane.json_encode_ns"] = probe(budget, func() {
		for i := 0; i < reps; i++ {
			if _, err := json.Marshal(lastReq); err != nil {
				derr = err
			}
			if _, err := json.Marshal(lastRep); err != nil {
				derr = err
			}
		}
	}) / reps
	m["ctlplane.json_decode_ns"] = probe(budget, func() {
		for i := 0; i < reps; i++ {
			var q core.BootRequest
			var r core.BootReport
			if err := json.Unmarshal(reqJS, &q); err != nil {
				derr = err
			}
			if err := json.Unmarshal(repJS, &r); err != nil {
				derr = err
			}
		}
	}) / reps
	return m, derr
}
