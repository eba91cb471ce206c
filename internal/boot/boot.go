// Package boot simulates VM boots for the four storage configurations the
// paper compares in Fig 11:
//
//	qcow2 - xfs    base VMI stored flat on the local disk (baseline)
//	cold caches    baseline reads plus copy-on-read cache writes
//	warm caches - xfs   boot working set in a compact flat file
//	warm caches - zfs   boot working set in a deduplicated, compressed
//	                    cVolume at a given block size
//
// A boot reads each extent of the image's boot working set once, whole,
// in offset order. Like QCOW2, the CoW layer turns every request into
// whole-cluster fetches from the layer below; the host page cache
// absorbs re-reads and converts cluster over-fetch into the "free
// prefetching" speedup of §4.2.3. The cVolume path additionally
// pays a dedup-table lookup and decompression per record, reads records
// at their post-dedup (scattered) physical addresses, and re-reads whole
// records when the record size exceeds the cluster size — the mechanism
// that makes 128 KB boot slower than 64 KB in Fig 11.
package boot

import (
	"fmt"

	"repro/internal/corpus"
	"repro/internal/disk"
	"repro/internal/zvol"
)

// Config parameterizes the simulator.
type Config struct {
	Disk        disk.Model
	CPU         disk.CPUModel
	PageCache   int64   // host page cache bytes available to the boot
	ClusterSize int64   // QCOW2 cluster size (default 64 KB)
	CPUBootSec  float64 // fixed non-I/O part of a boot (kernel + services)
}

// DefaultConfig mirrors the paper's environment at corpus scale: the
// scale factor is the ratio of the paper's ≈134 MB mean cache to this
// corpus's mean cache, so simulated boots land in the paper's 10–45 s
// band.
func DefaultConfig(scale float64) Config {
	return Config{
		Disk:        disk.ScaledModel(scale),
		CPU:         disk.ScaledCPU(scale),
		PageCache:   1 << 30,
		ClusterSize: 64 * 1024,
		CPUBootSec:  14,
	}
}

// Result is one simulated boot.
type Result struct {
	Seconds    float64 // total boot time
	IOSec      float64 // disk service time
	CPUSec     float64 // decompression + DDT lookups (excl. CPUBootSec)
	DiskReads  int64
	BytesRead  int64 // physical bytes transferred from disk
	BytesWrite int64 // copy-on-read cache writes (cold boots)
	CacheHits  int64 // page-cache hits
}

// Sim simulates boots under one configuration.
type Sim struct {
	cfg Config
}

// New returns a simulator. The zero ClusterSize defaults to 64 KB.
func New(cfg Config) *Sim {
	if cfg.ClusterSize == 0 {
		cfg.ClusterSize = 64 * 1024
	}
	return &Sim{cfg: cfg}
}

// request is one cluster-granular fetch in some address space.
type request struct{ off, n int64 }

// clusterRequests rounds an extent to whole clusters, clipped to size.
func clusterRequests(off, n, cluster, size int64) []request {
	var out []request
	end := off + n
	if end > size {
		end = size
	}
	for c := off / cluster; c*cluster < end; c++ {
		s := c * cluster
		l := cluster
		if s+l > size {
			l = size - s
		}
		out = append(out, request{off: s, n: l})
	}
	return out
}

// BootBaselineLocal boots from the base VMI stored flat on the local
// disk ("qcow2 - xfs"): the boot's reads round to clusters in image space.
func (s *Sim) BootBaselineLocal(im *corpus.Image) Result {
	return s.bootFlat(im, identityMap{size: im.RawSize()}, false)
}

// BootColdCacheLocal is BootBaselineLocal plus copy-on-read: every
// cluster fetched from the base is also written sequentially to the
// nascent cache file ("cold caches - xfs").
func (s *Sim) BootColdCacheLocal(im *corpus.Image) Result {
	return s.bootFlat(im, identityMap{size: im.RawSize()}, true)
}

// BootWarmCacheXFS boots from a warm cache stored as a compact flat file
// on the local file system ("warm caches - xfs").
func (s *Sim) BootWarmCacheXFS(im *corpus.Image) Result {
	return s.bootFlat(im, extentMap{im.Layout()}, false)
}

// offsetMap translates image-space offsets into the address space of the
// file actually stored on disk.
type offsetMap interface {
	// translate maps an image-space extent to stored-space extents.
	translate(off, n int64) []request
	// size is the stored file's length.
	size2() int64
}

type identityMap struct{ size int64 }

func (m identityMap) translate(off, n int64) []request { return []request{{off, n}} }
func (m identityMap) size2() int64                     { return m.size }

// extentMap maps image offsets to the compact cache file: a view of the
// image's cache-object layout, built once by corpus.
type extentMap struct{ *corpus.Layout }

func (m extentMap) size2() int64 { return m.Size }

func (m extentMap) translate(off, n int64) []request {
	var out []request
	for i := m.Find(off); i < len(m.Ext) && m.Ext[i].Off < off+n; i++ {
		e := m.Ext[i]
		lo, hi := max(off, e.Off), min(off+n, e.Off+e.Len)
		out = append(out, request{off: m.Base[i] + (lo - e.Off), n: hi - lo})
	}
	return out
}

// bootFlat replays the boot's reads against a flat file on the local disk.
func (s *Sim) bootFlat(im *corpus.Image, m offsetMap, copyOnRead bool) Result {
	d := disk.New(s.cfg.Disk)
	pc := disk.NewPageCache(s.cfg.PageCache)
	var res Result
	const dev = 1
	for _, e := range im.Layout().Ext {
		for _, tr := range m.translate(e.Off, e.Len) {
			for _, rq := range clusterRequests(tr.off, tr.n, s.cfg.ClusterSize, m.size2()) {
				misses := pc.Access(dev, rq.off, rq.n)
				for _, ms := range misses {
					res.IOSec += d.Read(ms.Off, ms.Len)
					if copyOnRead {
						// Copy-on-read cache writes go through the page
						// cache and are flushed by writeback: they cost
						// transfer bandwidth but no synchronous seeks
						// (this is why the paper found CoR competitive
						// with plain CoW in [34]).
						res.IOSec += float64(ms.Len) / s.cfg.Disk.WriteBps
						res.BytesWrite += ms.Len
					}
				}
			}
		}
	}
	return s.finish(res, d, pc)
}

// BootWarmCacheZVol boots from a warm cache stored in a cVolume
// ("warm caches - zfs"). The cache must exist as object objName in vol.
func (s *Sim) BootWarmCacheZVol(im *corpus.Image, vol *zvol.Volume, objName string) (Result, error) {
	infos, err := vol.BlockInfos(objName)
	if err != nil {
		return Result{}, fmt.Errorf("boot: %w", err)
	}
	bs := int64(vol.Config().BlockSize)
	codec := vol.Config().Codec
	if codec == "" {
		codec = "null"
	}
	ddtEntries := vol.DDTStats().Entries
	m := extentMap{im.Layout()}

	d := disk.New(s.cfg.Disk)
	pc := disk.NewPageCache(s.cfg.PageCache)
	var res Result
	const dev = 2
	for _, e := range im.Layout().Ext {
		for _, tr := range m.translate(e.Off, e.Len) {
			for _, rq := range clusterRequests(tr.off, tr.n, s.cfg.ClusterSize, m.size2()) {
				misses := pc.Access(dev, rq.off, rq.n)
				for _, ms := range misses {
					// Read every record overlapping the missed range:
					// ZFS fetches and decompresses whole records even
					// for partial reads.
					first := ms.Off / bs
					last := (ms.Off + ms.Len - 1) / bs
					for b := first; b <= last && b < int64(len(infos)); b++ {
						bi := infos[b]
						if bi.Zero {
							continue
						}
						res.CPUSec += s.cfg.CPU.DDTLookupSec(ddtEntries)
						res.IOSec += d.Read(int64(bi.Addr), int64(bi.PhysLen))
						if bi.Compressed {
							res.CPUSec += s.cfg.CPU.DecompressSec(codec, int64(bi.LogLen))
						}
						res.CPUSec += s.cfg.CPU.ChecksumSecPerByte * float64(bi.PhysLen)
					}
				}
			}
		}
	}
	return s.finish(res, d, pc), nil
}

// finish folds counters and the fixed CPU boot cost into the result.
func (s *Sim) finish(res Result, d *disk.Disk, pc *disk.PageCache) Result {
	res.DiskReads = d.Reads
	res.BytesRead = d.BytesRead
	res.CacheHits = pc.Hits
	res.Seconds = s.cfg.CPUBootSec + res.IOSec + res.CPUSec
	return res
}

// Average runs boot for each image through fn and averages the times —
// Fig 11 plots the repository-wide average boot time.
func Average(images []*corpus.Image, fn func(*corpus.Image) (Result, error)) (float64, error) {
	if len(images) == 0 {
		return 0, fmt.Errorf("boot: no images")
	}
	var sum float64
	for _, im := range images {
		r, err := fn(im)
		if err != nil {
			return 0, err
		}
		sum += r.Seconds
	}
	return sum / float64(len(images)), nil
}
