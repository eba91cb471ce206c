package zvol

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"repro/internal/block"
)

// Wire format for snapshot streams. Squirrel multicasts streams across
// the data center (§3.2), so they need a byte encoding: a magic-tagged
// header, length-prefixed sections, and a trailing CRC32 over everything,
// mirroring `zfs send`'s stream + checksum design.
//
//	magic "SQRL" | version u16
//	fromSnap, toSnap: u32-len strings | created unix-nano i64
//	deletes: u32 count × string
//	blocks:  u32 count × (u32 len | bytes)
//	upserts: u32 count × object
//	  object: name string | size i64 | u32 nptrs ×
//	          (flags u8 | logLen i32 | payload i32 | hash [32]byte)
//	crc32 (Castagnoli) over all preceding bytes
const (
	wireMagic   = "SQRL"
	wireVersion = 1
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// crcWriter tees writes through a CRC.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, crcTable, p[:n])
	cw.n += int64(n)
	return n, err
}

// WireSize returns exactly how many bytes Encode writes, computed from
// the stream's lengths alone — a Send-built stream's from its block
// pointers' logical lengths, nothing inflated — so a caller can charge a
// transfer, or give the wire buffer its final size, without encoding.
// (SizeBytes is the coarser figure the network accounting charges; this
// one follows the format above field by field.)
func (st *Stream) WireSize() int64 {
	str := func(s string) int64 { return 4 + int64(len(s)) }
	n := int64(len(wireMagic)) + 2 + str(st.FromSnap) + str(st.ToSnap) + 8
	n += 4
	for _, d := range st.Deletes {
		n += str(d)
	}
	count, size := st.shipped()
	n += 4 + 4*int64(count) + size
	n += 4
	for _, o := range st.Upserts {
		n += str(o.Name) + 8 + 4 + int64(len(o.Ptrs))*(1+4+4+32)
	}
	return n + 4 // trailing CRC
}

// Encode writes the stream in wire format. The returned byte count is the
// exact on-wire size. The wire carries logical blocks: a Send-built
// stream's stored payloads are inflated through the sender's codec as
// they are written, so its bytes are those of the same stream decoded
// off a wire.
func (st *Stream) Encode(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw}

	write := func(vs ...any) error {
		for _, v := range vs {
			if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		return nil
	}
	writeStr := func(s string) error {
		if err := write(uint32(len(s))); err != nil {
			return err
		}
		_, err := cw.Write([]byte(s))
		return err
	}

	if _, err := cw.Write([]byte(wireMagic)); err != nil {
		return cw.n, err
	}
	if err := write(uint16(wireVersion)); err != nil {
		return cw.n, err
	}
	if err := writeStr(st.FromSnap); err != nil {
		return cw.n, err
	}
	if err := writeStr(st.ToSnap); err != nil {
		return cw.n, err
	}
	if err := write(st.Created.UnixNano()); err != nil {
		return cw.n, err
	}
	if err := write(uint32(len(st.Deletes))); err != nil {
		return cw.n, err
	}
	for _, d := range st.Deletes {
		if err := writeStr(d); err != nil {
			return cw.n, err
		}
	}
	count, _ := st.shipped()
	if err := write(uint32(count)); err != nil {
		return cw.n, err
	}
	err := st.eachBlock(func(b []byte) error {
		if err := write(uint32(len(b))); err != nil {
			return err
		}
		_, err := cw.Write(b)
		return err
	})
	if err != nil {
		return cw.n, err
	}
	if err := write(uint32(len(st.Upserts))); err != nil {
		return cw.n, err
	}
	for _, o := range st.Upserts {
		if err := writeStr(o.Name); err != nil {
			return cw.n, err
		}
		if err := write(o.Size, uint32(len(o.Ptrs))); err != nil {
			return cw.n, err
		}
		for _, p := range o.Ptrs {
			var flags uint8
			if p.Zero {
				flags |= 1
			}
			if err := write(flags, p.LogLen, int32(p.Payload)); err != nil {
				return cw.n, err
			}
			if _, err := cw.Write(p.Hash[:]); err != nil {
				return cw.n, err
			}
		}
	}
	// Trailer: CRC over everything written so far.
	crc := cw.crc
	if err := binary.Write(bw, binary.LittleEndian, crc); err != nil {
		return cw.n, err
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n + 4, nil
}

// crcReader tees reads through a CRC.
type crcReader struct {
	r   io.Reader
	crc uint32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc = crc32.Update(cr.crc, crcTable, p[:n])
	return n, err
}

// maxWireStrings bounds decoded counts and lengths so a corrupt or
// malicious stream cannot trigger huge allocations. A shipped block is
// logical data, so it is never longer than the largest block size a
// volume accepts.
const (
	maxWireName  = 4096
	maxWireCount = 16 << 20
	maxWireBlock = uint32(block.Size1024K)
)

// DecodeStream parses a wire-format stream, verifying the trailing CRC.
// Memory is bounded by the input: every count and length is checked
// against its bound before anything is allocated for it, so no
// allocation runs more than one block ahead of the bytes read. The
// stream it accepts re-encodes to exactly the bytes it read, a prefix of
// its input: bytes after the trailer are ignored (FuzzDecodeStream holds
// it to both).
func DecodeStream(r io.Reader) (*Stream, error) {
	cr := &crcReader{r: bufio.NewReader(r)}
	read := func(vs ...any) error {
		for _, v := range vs {
			if err := binary.Read(cr, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		return nil
	}
	readStr := func(max uint32) (string, error) {
		var n uint32
		if err := read(&n); err != nil {
			return "", err
		}
		if n > max {
			return "", fmt.Errorf("zvol: wire string length %d exceeds %d", n, max)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(cr, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}

	magic := make([]byte, 4)
	if _, err := io.ReadFull(cr, magic); err != nil {
		return nil, fmt.Errorf("zvol: wire magic: %w", err)
	}
	if string(magic) != wireMagic {
		return nil, fmt.Errorf("zvol: bad wire magic %q", magic)
	}
	var version uint16
	if err := read(&version); err != nil {
		return nil, err
	}
	if version != wireVersion {
		return nil, fmt.Errorf("zvol: unsupported wire version %d", version)
	}
	st := &Stream{}
	var err error
	if st.FromSnap, err = readStr(maxWireName); err != nil {
		return nil, err
	}
	if st.ToSnap, err = readStr(maxWireName); err != nil {
		return nil, err
	}
	var createdNano int64
	if err := read(&createdNano); err != nil {
		return nil, err
	}
	st.Created = time.Unix(0, createdNano).UTC()

	var nDel uint32
	if err := read(&nDel); err != nil {
		return nil, err
	}
	if nDel > maxWireCount {
		return nil, fmt.Errorf("zvol: wire delete count %d", nDel)
	}
	for i := uint32(0); i < nDel; i++ {
		d, err := readStr(maxWireName)
		if err != nil {
			return nil, err
		}
		st.Deletes = append(st.Deletes, d)
	}
	var nBlocks uint32
	if err := read(&nBlocks); err != nil {
		return nil, err
	}
	if nBlocks > maxWireCount {
		return nil, fmt.Errorf("zvol: wire block count %d", nBlocks)
	}
	for i := uint32(0); i < nBlocks; i++ {
		var l uint32
		if err := read(&l); err != nil {
			return nil, err
		}
		if l > maxWireBlock {
			return nil, fmt.Errorf("zvol: wire block length %d", l)
		}
		b := make([]byte, l)
		if _, err := io.ReadFull(cr, b); err != nil {
			return nil, err
		}
		st.Blocks = append(st.Blocks, b)
	}
	var nUp uint32
	if err := read(&nUp); err != nil {
		return nil, err
	}
	if nUp > maxWireCount {
		return nil, fmt.Errorf("zvol: wire upsert count %d", nUp)
	}
	for i := uint32(0); i < nUp; i++ {
		var o StreamObject
		if o.Name, err = readStr(maxWireName); err != nil {
			return nil, err
		}
		var nPtrs uint32
		if err := read(&o.Size, &nPtrs); err != nil {
			return nil, err
		}
		if nPtrs > maxWireCount {
			return nil, fmt.Errorf("zvol: wire ptr count %d", nPtrs)
		}
		for j := uint32(0); j < nPtrs; j++ {
			var p StreamPtr
			var flags uint8
			var payload int32
			if err := read(&flags, &p.LogLen, &payload); err != nil {
				return nil, err
			}
			if _, err := io.ReadFull(cr, p.Hash[:]); err != nil {
				return nil, err
			}
			if flags&^1 != 0 { // Encode sets no other bit: refuse what it cannot have written
				return nil, fmt.Errorf("zvol: wire pointer flags %#x", flags)
			}
			p.Zero = flags&1 != 0
			p.Payload = int(payload)
			if p.Payload >= 0 && p.Payload >= len(st.Blocks) {
				return nil, fmt.Errorf("zvol: wire payload index %d out of range", p.Payload)
			}
			o.Ptrs = append(o.Ptrs, p)
		}
		st.Upserts = append(st.Upserts, o)
	}
	// Verify the trailer. The CRC bytes themselves must not be folded
	// into the running CRC, so read them from the underlying reader.
	want := cr.crc
	var got uint32
	if err := binary.Read(cr.r, binary.LittleEndian, &got); err != nil {
		return nil, fmt.Errorf("zvol: wire trailer: %w", err)
	}
	if got != want {
		return nil, fmt.Errorf("zvol: wire checksum mismatch: %08x != %08x", got, want)
	}
	return st, nil
}
