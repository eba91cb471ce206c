// Package corpus generates the synthetic VM image repository that stands
// in for the 607 Windows Azure community images the paper evaluates
// (16.4 TB raw). Real image bits cannot be shipped, so the corpus is a
// deterministic, seeded generative model reproducing the *structure* the
// paper's findings rest on:
//
//   - Images are user customizations of a few OS distributions (Table 2
//     mix: Ubuntu 579, RHEL/CentOS 17, SUSE 5, Debian 3, unidentified 3).
//   - Each image = boot region (shared per distro release) + OS base
//     (shared per release, with per-image point edits) + packages (drawn
//     from shared pools with Zipf popularity) + unique user data + a large
//     sparse region.
//   - The boot working set (the VMI cache) is dominated by the shared boot
//     region, so caches exhibit the high cross-similarity of §4.3.1, while
//     whole images are diluted by user data and packages.
//   - Per-image point edits inside shared regions make deduplication
//     improve as block size shrinks (small diffs no longer poison whole
//     blocks), and a misaligned minority of images reproduces the
//     alignment effect — the two mechanisms §2.2 cites for the dedup
//     trend.
//   - Content cells mix text-like (motif-repeating, highly compressible),
//     semi-compressible binary, and incompressible data, so real
//     compressors show the paper's falling ratio at small block sizes.
//
// Everything is derived from Spec.Seed with splitmix64 hashing: the same
// spec always yields byte-identical images on any machine.
package corpus

import (
	"fmt"
	"sort"
)

// DistroSpec describes one OS distribution in the dataset.
type DistroSpec struct {
	Name     string
	Count    int // images of this distro (Table 2)
	Releases int // distinct releases; images of one release share pools
}

// AzureDistros is the community-image mix of Windows Azure in November
// 2013 (Table 2 of the paper).
func AzureDistros() []DistroSpec {
	return []DistroSpec{
		{Name: "ubuntu", Count: 579, Releases: 8},
		{Name: "rhel-centos", Count: 17, Releases: 4},
		{Name: "suse", Count: 5, Releases: 2},
		{Name: "debian", Count: 3, Releases: 2},
		{Name: "unidentified", Count: 3, Releases: 3},
	}
}

// EC2Distros is the Amazon EC2 column of Table 2 (all regions combined,
// October 2013), used by the corpusgen tool to print the comparison table.
func EC2Distros() []DistroSpec {
	return []DistroSpec{
		{Name: "ubuntu", Count: 5720, Releases: 10},
		{Name: "rhel-centos", Count: 847, Releases: 6},
		{Name: "suse", Count: 8, Releases: 2},
		{Name: "debian", Count: 30, Releases: 3},
		{Name: "windows", Count: 531, Releases: 4},
		{Name: "unidentified", Count: 2654, Releases: 12},
	}
}

// Spec parameterizes a corpus. All sizes are logical bytes.
type Spec struct {
	Seed int64

	Distros []DistroSpec // defaults to AzureDistros()

	// ImageNonzero is the mean nonzero content per image. The paper's
	// dataset averages ≈2.4 GB nonzero per image (1.4 TB / 607); the
	// default here is scaled down so experiments run on one machine.
	ImageNonzero int64
	// SparseFactor is raw/nonzero. The paper's 16.4 TB raw over 1.4 TB
	// nonzero gives ≈11.7.
	SparseFactor float64
	// CacheFrac is the boot working set as a fraction of nonzero content.
	// The paper's 78.5 GB of caches over 1.4 TB nonzero gives ≈5.6%.
	CacheFrac float64

	// BaseFrac and PkgFrac split the nonzero content (after the boot
	// region) between the shared OS base, shared packages, and unique
	// user data (the remainder).
	BaseFrac, PkgFrac float64

	// EditEvery is the mean distance in bytes between per-image point
	// edits inside shared regions; smaller means more divergence and a
	// stronger small-block dedup advantage.
	EditEvery int64
	// MisalignFrac is the fraction of images whose shared segments are
	// placed with a sub-4K offset slip, defeating dedup at large block
	// sizes (alignment effect).
	MisalignFrac float64

	// CacheAlign is the granularity at which copy-on-read populates the
	// VMI cache: the QCOW2 cluster size (64 KB in the paper). Cache
	// extents are rounded out to this boundary, making the cache a
	// superset of the raw boot reads — exactly what a CoR first boot
	// leaves behind.
	CacheAlign int64
}

// DefaultSpec is the full Azure-mix corpus at laptop scale: 607 images,
// ≈6 MB nonzero each (≈3.6 GB of logical content, ≈42 GB "raw").
func DefaultSpec() Spec {
	return Spec{
		Seed:         1402531200, // 2014-06-12, submission-ish
		Distros:      AzureDistros(),
		ImageNonzero: 6 << 20,
		SparseFactor: 11.7,
		CacheFrac:    0.056,
		BaseFrac:     0.30,
		PkgFrac:      0.25,
		EditEvery:    128 << 10,
		MisalignFrac: 0.2,
		CacheAlign:   64 << 10,
	}
}

// TestSpec is a tiny corpus for unit tests: 24 images, 256 KB nonzero.
func TestSpec() Spec {
	s := DefaultSpec()
	s.Distros = []DistroSpec{
		{Name: "ubuntu", Count: 18, Releases: 3},
		{Name: "rhel-centos", Count: 4, Releases: 2},
		{Name: "debian", Count: 2, Releases: 1},
	}
	s.ImageNonzero = 256 << 10
	s.EditEvery = 16 << 10
	s.CacheAlign = 4 << 10 // tiny test caches need fine-grained CoR
	return s
}

// Scale returns a copy of s with image count and image size scaled by the
// given factors (counts are scaled per distro, keeping at least one image
// of each).
func (s Spec) Scale(countFactor, sizeFactor float64) Spec {
	out := s
	out.Distros = make([]DistroSpec, len(s.Distros))
	for i, d := range s.Distros {
		n := int(float64(d.Count)*countFactor + 0.5)
		if n < 1 {
			n = 1
		}
		r := d.Releases
		if r > n {
			r = n
		}
		out.Distros[i] = DistroSpec{Name: d.Name, Count: n, Releases: r}
	}
	out.ImageNonzero = int64(float64(s.ImageNonzero) * sizeFactor)
	return out
}

// Image is one VM image of the corpus: a recipe over content pools, never
// materialized unless read.
type Image struct {
	ID      string
	Distro  string
	Release int

	seed       int64
	misaligned bool // shared content sits at a sub-4K slipped offset
	recipe     []segment
	rawSize    int64 // logical size including the sparse tail
	nonzero    int64
	layout     Layout // boot working set: disjoint, sorted, aligned extents
}

// Repository is a fully constructed corpus.
type Repository struct {
	Spec   Spec
	Images []*Image
}

// New builds the corpus described by spec. Construction touches only
// recipes (cheap); content is generated lazily on read.
func New(spec Spec) (*Repository, error) {
	if spec.Distros == nil {
		spec.Distros = AzureDistros()
	}
	if spec.ImageNonzero <= 0 {
		return nil, fmt.Errorf("corpus: ImageNonzero must be positive")
	}
	if spec.SparseFactor < 1 {
		return nil, fmt.Errorf("corpus: SparseFactor must be >= 1")
	}
	if spec.CacheFrac <= 0 || spec.CacheFrac >= 1 {
		return nil, fmt.Errorf("corpus: CacheFrac must be in (0,1)")
	}
	if spec.BaseFrac+spec.PkgFrac >= 1 {
		return nil, fmt.Errorf("corpus: BaseFrac+PkgFrac must leave room for user data")
	}
	if spec.CacheAlign <= 0 || spec.CacheAlign&(spec.CacheAlign-1) != 0 {
		return nil, fmt.Errorf("corpus: CacheAlign must be a positive power of two")
	}
	r := &Repository{Spec: spec}
	for _, d := range spec.Distros {
		for i := 0; i < d.Count; i++ {
			release := releaseOf(spec.Seed, d, i)
			img := buildImage(spec, d.Name, release, i)
			r.Images = append(r.Images, img)
		}
	}
	sort.Slice(r.Images, func(i, j int) bool { return r.Images[i].ID < r.Images[j].ID })
	return r, nil
}

// releaseOf assigns image i of distro d to a release with a skewed
// (geometric-ish) popularity: newer releases hold more images, like real
// community repositories.
func releaseOf(seed int64, d DistroSpec, i int) int {
	if d.Releases <= 1 {
		return 0
	}
	u := mix(seed, hashString(d.Name), int64(i), 0xAE)
	// Geometric over releases: release k gets weight 2^-(k+1).
	x := float64(u%1000000) / 1000000
	acc, w := 0.0, 0.5
	for k := 0; k < d.Releases-1; k++ {
		acc += w
		if x < acc {
			return k
		}
		w /= 2
	}
	return d.Releases - 1
}

// RawBytes returns the total raw (sparse-inclusive) size of the corpus,
// the paper's "16.4 TB".
func (r *Repository) RawBytes() int64 {
	var n int64
	for _, img := range r.Images {
		n += img.rawSize
	}
	return n
}

// NonzeroBytes returns the total nonzero content, the paper's "1.4 TB".
func (r *Repository) NonzeroBytes() int64 {
	var n int64
	for _, img := range r.Images {
		n += img.nonzero
	}
	return n
}

// CacheBytes returns the total boot-working-set bytes, the paper's
// "78.5 GB".
func (r *Repository) CacheBytes() int64 {
	var n int64
	for _, img := range r.Images {
		n += img.CacheSize()
	}
	return n
}

// ByDistro returns image counts per distro name (Table 2).
func (r *Repository) ByDistro() map[string]int {
	out := map[string]int{}
	for _, img := range r.Images {
		out[img.Distro]++
	}
	return out
}

// RawSize is the image's logical size including the sparse tail.
func (im *Image) RawSize() int64 { return im.rawSize }

// NonzeroSize is the image's nonzero content in bytes.
func (im *Image) NonzeroSize() int64 { return im.nonzero }

// Misaligned reports whether the image places its shared content at a
// sub-4K slipped offset (the alignment-effect minority, §2.2). Misaligned
// images dedup poorly at large block sizes by construction.
func (im *Image) Misaligned() bool { return im.misaligned }

// CacheSize is the size of the image's boot working set in bytes.
func (im *Image) CacheSize() int64 { return im.layout.Size }
