package metrics

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/compress"
	"repro/internal/corpus"
)

// synthetic sources built from explicit block lists.
func listSource(id string, blocks ...[]byte) Source {
	return Source{
		ID: id,
		Blocks: func(bs block.Size, fn func(int64, []byte, bool) error) error {
			for i, b := range blocks {
				if err := fn(int64(i), b, block.IsZero(b)); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

func blk(fill byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestAnalyzeCounts(t *testing.T) {
	a := blk(1, 1024)
	b := blk(2, 1024)
	z := blk(0, 1024)
	srcs := []Source{
		listSource("s1", a, b, z),
		listSource("s2", a, a, z),
	}
	res, err := Analyze(srcs, block.Size1K, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalBlocks != 6 || res.NonzeroBlocks != 4 {
		t.Fatalf("total=%d nonzero=%d", res.TotalBlocks, res.NonzeroBlocks)
	}
	if res.UniqueBlocks != 2 {
		t.Fatalf("unique=%d", res.UniqueBlocks)
	}
	if got := res.DedupRatio(); got != 2 {
		t.Fatalf("dedup ratio %v want 2", got)
	}
	// a appears in both sources (repetition 2); b in one (0).
	if res.Repetition != 2 {
		t.Fatalf("repetition %d want 2", res.Repetition)
	}
	// |U1| = 2 (a, b), |U2| = 1 (a).
	if res.PerSourceUnique != 3 {
		t.Fatalf("per-source unique %d want 3", res.PerSourceUnique)
	}
	if got := res.CrossSimilarity(); got != 2.0/3.0 {
		t.Fatalf("cross-sim %v want 2/3", got)
	}
}

func TestCrossSimilarityExtremes(t *testing.T) {
	a := blk(1, 512)
	b := blk(2, 512)
	// Identical sources → similarity 1.
	same := []Source{listSource("x", a, b), listSource("y", a, b)}
	res, _ := Analyze(same, block.Size1K, nil)
	if got := res.CrossSimilarity(); got != 1 {
		t.Fatalf("identical sources: %v want 1", got)
	}
	// Disjoint sources → similarity 0.
	c := blk(3, 512)
	d := blk(4, 512)
	disjoint := []Source{listSource("x", a, b), listSource("y", c, d)}
	res, _ = Analyze(disjoint, block.Size1K, nil)
	if got := res.CrossSimilarity(); got != 0 {
		t.Fatalf("disjoint sources: %v want 0", got)
	}
}

func TestCompressionRatio(t *testing.T) {
	comp := blk('x', 4096) // compressible
	srcs := []Source{listSource("s", comp)}
	res, err := Analyze(srcs, block.Size4K, compress.MustGet("gzip6"))
	if err != nil {
		t.Fatal(err)
	}
	if res.CompressionRatio() < 10 {
		t.Fatalf("uniform block should compress >10x, got %v", res.CompressionRatio())
	}
	if res.CCR() != res.DedupRatio()*res.CompressionRatio() {
		t.Fatal("CCR definition violated")
	}
	// Without a codec, ratio is 1.
	res2, _ := Analyze(srcs, block.Size4K, nil)
	if res2.CompressionRatio() != 1 {
		t.Fatal("nil codec should give ratio 1")
	}
}

func TestEmptyAnalysis(t *testing.T) {
	res, err := Analyze(nil, block.Size4K, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.DedupRatio() != 1 || res.CrossSimilarity() != 0 {
		t.Fatalf("empty corpus metrics: %+v", res)
	}
}

func TestCorpusTrends(t *testing.T) {
	// The load-bearing test of the whole substitution: the synthetic
	// corpus must reproduce the paper's qualitative findings.
	if testing.Short() {
		t.Skip("corpus sweep")
	}
	// The paper's caches are O(100 MB) against block sizes up to 1 MB, so
	// a cache spans many blocks at every size studied. The scaled corpus
	// must preserve that: caches here are ~500 KB against blocks up to
	// 128 KB (same two-orders-of-magnitude headroom at the bottom end).
	spec := corpus.TestSpec()
	spec.Distros = []corpus.DistroSpec{
		{Name: "ubuntu", Count: 9, Releases: 2},
		{Name: "rhel-centos", Count: 3, Releases: 1},
	}
	spec.ImageNonzero = 4 << 20
	spec.CacheFrac = 0.12
	spec.EditEvery = 64 << 10
	repo, err := corpus.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	images := ImageSources(repo)
	caches := CacheSources(repo)
	sizes := []block.Size{block.Size4K, block.Size32K, block.Size128K}
	gz := compress.MustGet("gzip6")

	imgRes, err := Sweep(images, sizes, gz, 0)
	if err != nil {
		t.Fatal(err)
	}
	cacheRes, err := Sweep(caches, sizes, gz, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Fig 2 trend: dedup ratio increases as block size decreases.
	for _, rs := range [][]Result{imgRes, cacheRes} {
		if !(rs[0].DedupRatio() > rs[2].DedupRatio()) {
			t.Errorf("dedup ratio should rise at small blocks: 4K=%.2f 256K=%.2f",
				rs[0].DedupRatio(), rs[2].DedupRatio())
		}
	}
	// Fig 2 trend: gzip ratio decreases as block size decreases.
	for _, rs := range [][]Result{imgRes, cacheRes} {
		if !(rs[0].CompressionRatio() < rs[2].CompressionRatio()) {
			t.Errorf("gzip ratio should fall at small blocks: 4K=%.2f 256K=%.2f",
				rs[0].CompressionRatio(), rs[2].CompressionRatio())
		}
	}
	// Fig 12: caches are far more cross-similar than images, at all sizes.
	for i := range sizes {
		ci, ii := cacheRes[i].CrossSimilarity(), imgRes[i].CrossSimilarity()
		if ci < ii+0.2 {
			t.Errorf("bs=%v: cache similarity %.2f should clearly exceed image similarity %.2f",
				sizes[i], ci, ii)
		}
	}
	// ... strongly so at small block sizes, and still meaningfully at the
	// largest (the paper's caches keep ≈0.55 even at 1 MB blocks).
	if got := cacheRes[0].CrossSimilarity(); got < 0.6 {
		t.Errorf("4K cache similarity %.2f too low for the scatter-hoarding claim", got)
	}
	if got := cacheRes[len(sizes)-1].CrossSimilarity(); got < 0.35 {
		t.Errorf("top-size cache similarity %.2f too low", got)
	}
	// Caches dedup better than images (what makes them scalable).
	for i := range sizes {
		if cacheRes[i].DedupRatio() < imgRes[i].DedupRatio() {
			t.Errorf("bs=%v: cache dedup %.2f < image dedup %.2f",
				sizes[i], cacheRes[i].DedupRatio(), imgRes[i].DedupRatio())
		}
	}
}

func TestSweepOrdering(t *testing.T) {
	srcs := []Source{listSource("s", blk(1, 2048), blk(1, 2048))}
	sizes := []block.Size{block.Size1K, block.Size2K}
	rs, err := Sweep(srcs, sizes, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].BlockSize != block.Size1K || rs[1].BlockSize != block.Size2K {
		t.Fatal("sweep results out of order")
	}
}

// TestSweepReturnsEarliestError: every size runs, and the error reported
// is the earliest failing size's, whichever worker finished first.
func TestSweepReturnsEarliestError(t *testing.T) {
	failing := Source{ID: "bad", Blocks: func(bs block.Size, _ func(int64, []byte, bool) error) error {
		if bs == block.Size1K {
			return nil
		}
		return fmt.Errorf("read failed at %v", bs)
	}}
	sizes := []block.Size{block.Size1K, block.Size2K, block.Size4K}
	rs, err := Sweep([]Source{failing}, sizes, nil, 3)
	if rs != nil || err == nil || !strings.Contains(err.Error(), fmt.Sprint(block.Size2K)) {
		t.Fatalf("Sweep = (%v, %v), want the %v error", rs, err, block.Size2K)
	}
}
