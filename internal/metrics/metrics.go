// Package metrics computes the paper's compression-efficiency and
// similarity metrics over a corpus:
//
//	deduplication ratio  |N| / |U|            (§2.2, nonzero over unique)
//	compression ratio    Σ size / Σ compressed, over unique blocks
//	CCR                  dedup ratio × compression ratio      (§2.2)
//	cross-similarity     Σ repetitionᵢ / Σ|Uⱼ|                (§4.3.1)
//
// These drive Figs 2, 3, 4, and 12, and Table 1. Analyses stream blocks
// from corpus recipes (no corpus materialization) and fold them into a
// compact table keyed by a 64-bit fold of the SHA-256 content hash.
package metrics

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/compress"
	"repro/internal/conc"
	"repro/internal/corpus"
)

// Source is anything that can enumerate its blocks at a given block size.
// Images and caches are both sources, which is how every figure gets its
// "images" and "caches" series from the same code.
type Source struct {
	ID     string
	Blocks func(bs block.Size, fn func(idx int64, data []byte, zero bool) error) error
}

// ImageSources adapts a repository's full images.
func ImageSources(r *corpus.Repository) []Source {
	out := make([]Source, len(r.Images))
	for i, im := range r.Images {
		im := im
		out[i] = Source{ID: im.ID, Blocks: im.Blocks}
	}
	return out
}

// CacheSources adapts a repository's boot working sets (VMI caches).
func CacheSources(r *corpus.Repository) []Source {
	out := make([]Source, len(r.Images))
	for i, im := range r.Images {
		im := im
		out[i] = Source{ID: im.ID + ".cache", Blocks: im.CacheBlocks}
	}
	return out
}

// Result aggregates one analysis pass over a set of sources at one block
// size.
type Result struct {
	BlockSize block.Size
	Codec     string

	Sources       int
	TotalBlocks   int64 // including zero blocks
	NonzeroBlocks int64 // |N|
	UniqueBlocks  int64 // |U|
	LogicalBytes  int64 // all bytes, incl. zeros
	NonzeroBytes  int64
	UniqueBytes   int64 // Σ size(i), i ∈ U
	CompBytes     int64 // Σ size(compress(i)), i ∈ U; 0 if no codec

	// Repetition is Σ over unique blocks of the number of distinct
	// sources containing the block, counting only blocks that appear in
	// ≥2 sources (the paper's repetitionᵢ).
	Repetition int64
	// PerSourceUnique is Σⱼ |Uⱼ|: unique blocks within each source,
	// summed over sources (the cross-similarity denominator).
	PerSourceUnique int64
}

// DedupRatio is |N| / |U|.
func (r Result) DedupRatio() float64 {
	if r.UniqueBlocks == 0 {
		return 1
	}
	return float64(r.NonzeroBlocks) / float64(r.UniqueBlocks)
}

// CompressionRatio is Σ size / Σ compressed over unique blocks, or 1 if
// no codec was applied.
func (r Result) CompressionRatio() float64 {
	if r.CompBytes == 0 {
		return 1
	}
	return float64(r.UniqueBytes) / float64(r.CompBytes)
}

// CCR is the combined compression ratio (§2.2).
func (r Result) CCR() float64 { return r.DedupRatio() * r.CompressionRatio() }

// CrossSimilarity is the paper's §4.3.1 metric in [0, 1].
func (r Result) CrossSimilarity() float64 {
	if r.PerSourceUnique == 0 {
		return 0
	}
	return float64(r.Repetition) / float64(r.PerSourceUnique)
}

// blockInfo is the per-unique-block accumulator.
type blockInfo struct {
	refs    int64
	sources int32
	lastSrc int32
	logLen  int32
	compLen int32
}

// Analyze streams every source at block size bs and aggregates the
// metrics. codec may be nil to skip content compression (dedup-only
// passes are much faster). Sources are processed sequentially, so the
// distinct-source counting needs no sets.
func Analyze(sources []Source, bs block.Size, codec compress.Codec) (Result, error) {
	res := Result{BlockSize: bs, Sources: len(sources)}
	if codec != nil {
		res.Codec = codec.Name()
	}
	table := make(map[uint64]*blockInfo, 1<<16)
	for si, src := range sources {
		seen := make(map[uint64]struct{}, 1<<10) // unique within this source
		err := src.Blocks(bs, func(_ int64, data []byte, zero bool) error {
			res.TotalBlocks++
			if zero {
				res.LogicalBytes += int64(bs) // holes are full blocks
				return nil
			}
			res.NonzeroBlocks++
			res.LogicalBytes += int64(len(data))
			res.NonzeroBytes += int64(len(data))
			key := block.HashOf(data).Uint64()
			if _, dup := seen[key]; !dup {
				seen[key] = struct{}{}
				res.PerSourceUnique++
			}
			bi, ok := table[key]
			if !ok {
				bi = &blockInfo{lastSrc: -1, logLen: int32(len(data))}
				if codec != nil {
					bi.compLen = int32(len(codec.Compress(data)))
				}
				table[key] = bi
			}
			bi.refs++
			if bi.lastSrc != int32(si) {
				bi.sources++
				bi.lastSrc = int32(si)
			}
			return nil
		})
		if err != nil {
			return Result{}, fmt.Errorf("metrics: source %s: %w", src.ID, err)
		}
	}
	for _, bi := range table {
		res.UniqueBlocks++
		res.UniqueBytes += int64(bi.logLen)
		res.CompBytes += int64(bi.compLen)
		if bi.sources >= 2 {
			res.Repetition += int64(bi.sources)
		}
	}
	return res, nil
}

// Sweep runs Analyze at every block size in sizes, in parallel, and
// returns results in the same order; on failure it returns the error of
// the earliest failing size.
func Sweep(sources []Source, sizes []block.Size, codec compress.Codec, workers int) ([]Result, error) {
	results := make([]Result, len(sizes))
	errs := make([]error, len(sizes))
	conc.ForEach(len(sizes), workers, func(i int) {
		results[i], errs[i] = Analyze(sources, sizes[i], codec)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
