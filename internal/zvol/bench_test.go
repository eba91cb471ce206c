package zvol

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/block"
)

// benchPayload is a mixed compressible/dedupable payload.
func benchPayload(n int) []byte {
	data := mkData(100, n)
	return data
}

func benchVolume(b *testing.B, cfgName string, cfg Config) {
	b.Helper()
	payload := benchPayload(1 << 20)
	b.Run(cfgName+"/write", func(b *testing.B) {
		v, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			if _, err := v.WriteObject(fmt.Sprintf("o%d", i), bytes.NewReader(payload)); err != nil {
				b.Fatal(err)
			}
		}
	})
	written := func(b *testing.B) *Volume {
		v, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := v.WriteObject("o", bytes.NewReader(payload)); err != nil {
			b.Fatal(err)
		}
		return v
	}
	b.Run(cfgName+"/read", func(b *testing.B) {
		v := written(b)
		b.SetBytes(int64(len(payload)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := v.ReadObject("o"); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Range reads, the peer exchange's source-side read. readat walks the
	// object in aligned 64 KB ranges (whole blocks decode straight into
	// the caller's buffer); readat-4K-unaligned asks for 4 KB ranges 1234
	// bytes past a 4 KB boundary (the covering block decodes into scratch),
	// so its MB/s is delivered bytes, not decoded bytes.
	for _, rr := range []struct {
		name        string
		size, shift int64
	}{{"readat", 64 << 10, 0}, {"readat-4K-unaligned", 4 << 10, 1234}} {
		b.Run(cfgName+"/"+rr.name, func(b *testing.B) {
			v := written(b)
			p := make([]byte, rr.size)
			slots := int64(len(payload))/rr.size - 1 // the shift must not push the last range off the end
			b.SetBytes(rr.size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := int64(i)*7%slots*rr.size + rr.shift
				if err := v.ReadAt("o", p, off); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkVolume(b *testing.B) {
	benchVolume(b, "dedup+gzip6/64K", Config{BlockSize: block.Size64K, Codec: "gzip6", Dedup: true})
	benchVolume(b, "dedup+lz4/64K", Config{BlockSize: block.Size64K, Codec: "lz4", Dedup: true})
	benchVolume(b, "dedup-only/64K", Config{BlockSize: block.Size64K, Codec: "null", Dedup: true})
	benchVolume(b, "raw/64K", Config{BlockSize: block.Size64K, Codec: "null", Dedup: false})
	benchVolume(b, "dedup+gzip6/4K", Config{BlockSize: block.Size4K, Codec: "gzip6", Dedup: true})
}

// BenchmarkReadAtDecoded times a whole-block 64 KB ReadAt on the paper's
// configuration at both ends of the decoded-block cache: hot reads one
// block, so every read after the first is a hit (checks and a copy);
// miss cycles in order over one block more than the budget holds, so
// the LRU always evicts the block read next and every read decodes. The
// cache has no off switch, and miss is the floor it would have measured.
func BenchmarkReadAtDecoded(b *testing.B) {
	const bs = 64 << 10
	for _, c := range []struct {
		name   string
		blocks int
	}{{"hot", 1}, {"miss", decodeBudget/bs + 1}} {
		b.Run(c.name, func(b *testing.B) {
			v, err := New(DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			var data []byte
			for i := 0; i < c.blocks; i++ {
				data = append(data, benchPayload(bs)...)
				copy(data[i*bs:], fmt.Sprintf("block %d", i)) // distinct: no dedup
			}
			if _, err := v.WriteObject("o", bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
			p := make([]byte, bs)
			b.SetBytes(bs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := v.ReadAt("o", p, int64(i%c.blocks)*bs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSnapshotSendReceive(b *testing.B) {
	src, _ := New(DefaultConfig())
	payload := benchPayload(1 << 20)
	src.WriteObject("base", bytes.NewReader(payload))
	src.Snapshot("s0", time.Unix(0, 0))
	// A similar second object: realistic incremental workload.
	similar := append([]byte(nil), payload...)
	copy(similar[:64<<10], benchPayload(64<<10))
	src.WriteObject("next", bytes.NewReader(similar))
	src.Snapshot("s1", time.Unix(1, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream, err := src.Send("s0", "s1")
		if err != nil {
			b.Fatal(err)
		}
		dst, _ := New(DefaultConfig())
		full, err := src.Send("", "s0")
		if err != nil {
			b.Fatal(err)
		}
		if err := dst.Receive(full); err != nil {
			b.Fatal(err)
		}
		if err := dst.Receive(stream); err != nil {
			b.Fatal(err)
		}
	}
}
