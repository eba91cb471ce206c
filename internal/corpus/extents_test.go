package corpus

import (
	"bytes"
	"io"
	"testing"
)

// TestCacheExtentInvariants checks structural invariants of the boot
// working set for every image of several specs: extents are disjoint,
// sorted, CoR-aligned, within nonzero content, and exactly tiled by the
// boot trace; and the layout concatenates them: each base is the sum of
// the earlier lengths, the layout's size, CacheSize and the CacheReader
// stream agree, and the stream holds each extent's image bytes at its
// base.
func TestCacheExtentInvariants(t *testing.T) {
	specs := map[string]Spec{"test": TestSpec()}
	d := DefaultSpec().Scale(0.02, 0.2)
	specs["scaled-default"] = d

	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			repo, err := New(spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, im := range repo.Images {
				exts := im.CacheExtentsSorted()
				if len(exts) == 0 {
					t.Fatalf("%s: no cache extents", im.ID)
				}
				var prevEnd int64 = -1
				for i, e := range exts {
					if e.Len <= 0 {
						t.Fatalf("%s: extent %d empty", im.ID, i)
					}
					if e.Off <= prevEnd {
						t.Fatalf("%s: extent %d overlaps or unsorted", im.ID, i)
					}
					if !im.Misaligned() && e.Off%spec.CacheAlign != 0 {
						t.Fatalf("%s: extent %d at %d not CoR-aligned", im.ID, i, e.Off)
					}
					if e.Off+e.Len > im.NonzeroSize() {
						t.Fatalf("%s: extent %d exceeds nonzero content", im.ID, i)
					}
					prevEnd = e.Off + e.Len - 1
				}
				// Trace tiles the extents exactly: same total bytes, every
				// read inside some extent.
				var traceBytes int64
				for _, r := range im.BootTrace() {
					traceBytes += r.Len
					inside := false
					for _, e := range exts {
						if r.Off >= e.Off && r.Off+r.Len <= e.Off+e.Len {
							inside = true
							break
						}
					}
					if !inside {
						t.Fatalf("%s: trace read [%d,%d) outside cache extents", im.ID, r.Off, r.Off+r.Len)
					}
				}
				if traceBytes != im.CacheSize() {
					t.Fatalf("%s: trace %d bytes, cache %d", im.ID, traceBytes, im.CacheSize())
				}
				checkLayout(t, im)
			}
		})
	}
}

// checkLayout checks im's layout against its extents and its content.
func checkLayout(t *testing.T, im *Image) {
	t.Helper()
	l := im.Layout()
	if len(l.Base) != len(l.Ext) {
		t.Fatalf("%s: %d bases for %d extents", im.ID, len(l.Base), len(l.Ext))
	}
	var sum int64
	for i, e := range l.Ext {
		if l.Base[i] != sum {
			t.Fatalf("%s: extent %d at base %d, earlier extents sum to %d", im.ID, i, l.Base[i], sum)
		}
		sum += e.Len
	}
	cache, err := io.ReadAll(im.CacheReader())
	if err != nil {
		t.Fatal(err)
	}
	if l.Size != sum || im.CacheSize() != sum || int64(len(cache)) != sum {
		t.Fatalf("%s: layout size %d, CacheSize %d, CacheReader %d bytes, extents sum to %d",
			im.ID, l.Size, im.CacheSize(), len(cache), sum)
	}
	g := NewGenerator(im)
	for i, e := range l.Ext {
		want := make([]byte, e.Len)
		if _, err := g.ReadAt(want, e.Off); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if !bytes.Equal(cache[l.Base[i]:l.Base[i]+e.Len], want) {
			t.Fatalf("%s: cache bytes [%d,+%d) differ from image bytes [%d,+%d)",
				im.ID, l.Base[i], e.Len, e.Off, e.Len)
		}
	}
}

// TestLayoutFind checks both lookups on a hand-written layout: extents
// [10,20) and [50,70) at bases 0 and 10, object size 30.
func TestLayoutFind(t *testing.T) {
	l := NewLayout([]Extent{{Off: 10, Len: 10}, {Off: 50, Len: 20}})
	if l.Size != 30 || l.Base[0] != 0 || l.Base[1] != 10 {
		t.Fatalf("layout %+v", l)
	}
	for _, c := range []struct {
		name string
		off  int64
		want int
	}{
		{"before the first extent", 0, 0},
		{"just before the first extent", 9, 0},
		{"first extent's start", 10, 0},
		{"first extent's last byte", 19, 0},
		{"first extent's end, the gap", 20, 1},
		{"inside the gap", 35, 1},
		{"second extent's start", 50, 1},
		{"second extent's last byte", 69, 1},
		{"second extent's end", 70, 2},
		{"past the last extent", 1 << 20, 2},
	} {
		if got := l.Find(c.off); got != c.want {
			t.Errorf("Find(%d) (%s) = %d, want %d", c.off, c.name, got, c.want)
		}
	}
	for _, c := range []struct {
		name string
		base int64
		want int
	}{
		{"object start", 0, 0},
		{"first extent's last byte", 9, 0},
		{"second extent's start", 10, 1},
		{"second extent's last byte", 29, 1},
		{"object end", 30, 2},
		{"past the object", 100, 2},
	} {
		if got := l.FindBase(c.base); got != c.want {
			t.Errorf("FindBase(%d) (%s) = %d, want %d", c.base, c.name, got, c.want)
		}
	}
}

// TestBootPoolPrefixShared verifies the mechanism behind cache
// cross-similarity: the cache streams of two aligned same-release images
// share a long common prefix (the boot pool in fetch order).
func TestBootPoolPrefixShared(t *testing.T) {
	spec := DefaultSpec().Scale(0.03, 0.3)
	repo, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	byRelease := map[string][]*Image{}
	for _, im := range repo.Images {
		if !im.Misaligned() {
			key := im.Distro + string(rune('0'+im.Release))
			byRelease[key] = append(byRelease[key], im)
		}
	}
	checked := 0
	for _, ims := range byRelease {
		if len(ims) < 2 {
			continue
		}
		a, b := ims[0], ims[1]
		n := min64(a.CacheSize(), b.CacheSize()) / 2 // well inside the boot prefix
		ba := readN(t, a, n)
		bb := readN(t, b, n)
		same := 0
		for i := range ba {
			if ba[i] == bb[i] {
				same++
			}
		}
		if frac := float64(same) / float64(n); frac < 0.9 {
			t.Fatalf("%s vs %s: cache prefix only %.2f shared", a.ID, b.ID, frac)
		}
		checked++
	}
	if checked == 0 {
		t.Skip("no same-release aligned pair at this scale")
	}
}

func readN(t *testing.T, im *Image, n int64) []byte {
	t.Helper()
	buf := make([]byte, n)
	r := im.CacheReader()
	got := 0
	for int64(got) < n {
		k, err := r.Read(buf[got:])
		got += k
		if err != nil {
			t.Fatalf("%s: cache read: %v", im.ID, err)
		}
	}
	return buf
}
