package experiments

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/boot"
	"repro/internal/corpus"
	"repro/internal/zvol"
)

func init() {
	register(Experiment{ID: "ablate-storage", Title: "Ablation: dedup and compression contributions to cVolume size", Run: AblateStorage})
	register(Experiment{ID: "ablate-cluster", Title: "Ablation: QCOW2 cluster size vs warm zfs boot time", Run: AblateClusterSize})
	register(Experiment{ID: "ablate-pagecache", Title: "Ablation: page cache contribution to warm boot time", Run: AblatePageCache})
}

// AblateStorage isolates the contribution of deduplication and
// compression to the cVolume footprint (the paper combines them; this
// ablation justifies needing both, §2.2).
func AblateStorage(s Scale) (Table, error) {
	repo, err := corpus.New(VolumeSpec(Scale{Count: s.Count * 0.3, Size: s.Size}))
	if err != nil {
		return Table{}, err
	}
	t := Table{Title: "Ablation: cVolume footprint by feature (caches, bs=64KB)",
		Header: []string{"configuration", "data (MB)", "total disk (MB)", "vs raw"}}
	var raw float64
	for _, c := range []struct {
		name  string
		codec string
		dedup bool
	}{
		{"raw (no dedup, no compression)", "null", false},
		{"dedup only", "null", true},
		{"gzip6 only", "gzip6", false},
		{"dedup + gzip6 (Squirrel)", "gzip6", true},
	} {
		cfg := zvol.Config{BlockSize: block.Size64K, Codec: c.codec, Dedup: c.dedup}
		v, err := zvol.New(cfg)
		if err != nil {
			return Table{}, err
		}
		for _, im := range repo.Images {
			if _, err := v.WriteObject(im.ID, im.CacheReader()); err != nil {
				return Table{}, err
			}
		}
		st := v.Stats()
		if raw == 0 {
			raw = float64(st.DiskBytes)
		}
		t.Rows = append(t.Rows, []string{c.name,
			fmt.Sprintf("%.2f", float64(st.DataBytes)/(1<<20)),
			fmt.Sprintf("%.2f", float64(st.DiskBytes)/(1<<20)),
			fmt.Sprintf("%.2fx", raw/float64(st.DiskBytes))})
	}
	t.Comment = "both features multiply: neither alone reaches the combined ratio (CCR = dedup × compression)"
	return t, nil
}

// AblateClusterSize varies the QCOW2 cluster size against a fixed 64 KB
// cVolume, isolating the mechanism behind the 128 KB anomaly in Fig 11
// (§4.2.3 attributes it to the 64 KB cluster default).
func AblateClusterSize(s Scale) (Table, error) {
	repo, err := corpus.New(BootSpec(Scale{Count: s.Count * 0.5, Size: s.Size}))
	if err != nil {
		return Table{}, err
	}
	var cacheSum int64
	for _, im := range repo.Images {
		cacheSum += im.CacheSize()
	}
	mean := float64(cacheSum) / float64(len(repo.Images))
	vol, err := ccVolumeAt(repo, block.Size64K, "")
	if err != nil {
		return Table{}, err
	}
	t := Table{Title: "Ablation: QCOW2 cluster size vs warm boot from a 64KB cVolume",
		Header: []string{"cluster", "avg boot (s)"}}
	for _, cluster := range []int64{16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10} {
		cfg := boot.DefaultConfig(134e6 / mean)
		cfg.ClusterSize = cluster
		sim := boot.New(cfg)
		avg, err := boot.Average(repo.Images, func(im *corpus.Image) (boot.Result, error) {
			return sim.BootWarmCacheZVol(im, vol, im.ID)
		})
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{block.Size(cluster).String(), fmt.Sprintf("%.2f", avg)})
	}
	t.Comment = "clusters smaller than the record re-read/decompress whole records; clusters ≥ record avoid the waste"
	return t, nil
}

// AblatePageCache reruns warm boots with the page cache effectively
// disabled, quantifying the "free prefetching" effect of §4.2.3.
func AblatePageCache(s Scale) (Table, error) {
	repo, err := corpus.New(BootSpec(Scale{Count: s.Count * 0.5, Size: s.Size}))
	if err != nil {
		return Table{}, err
	}
	var cacheSum int64
	for _, im := range repo.Images {
		cacheSum += im.CacheSize()
	}
	mean := float64(cacheSum) / float64(len(repo.Images))
	t := Table{Title: "Ablation: page cache contribution to warm boots (bs=64KB)",
		Header: []string{"configuration", "warm xfs (s)", "baseline local (s)"}}
	for _, pc := range []struct {
		name  string
		bytes int64
	}{{"page cache on (1 GB)", 1 << 30}, {"page cache off (1 page)", 1}} {
		cfg := boot.DefaultConfig(134e6 / mean)
		cfg.PageCache = pc.bytes
		sim := boot.New(cfg)
		warm, err := boot.Average(repo.Images, func(im *corpus.Image) (boot.Result, error) {
			return sim.BootWarmCacheXFS(im), nil
		})
		if err != nil {
			return Table{}, err
		}
		base, err := boot.Average(repo.Images, func(im *corpus.Image) (boot.Result, error) {
			return sim.BootBaselineLocal(im), nil
		})
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{pc.name, fmt.Sprintf("%.2f", warm), fmt.Sprintf("%.2f", base)})
	}
	t.Comment = "without the page cache, cluster over-fetch stops paying off and the warm-cache advantage shrinks"
	return t, nil
}
