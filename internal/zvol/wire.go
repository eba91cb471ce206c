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
// mirroring `zfs send`'s stream + checksum design. Little-endian:
//
//	magic "SQRL" | version u16
//	fromSnap, toSnap: u32-len strings | created unix-nano i64
//	deletes: u32 count × string
//	blocks:  u32 count × (u32 len | bytes)
//	upserts: u32 count × object
//	  object: name string | size i64 | u32 nptrs ×
//	          (flags u8 | logLen i32 | payload i32 | hash [32]byte)
//	crc32 (Castagnoli) over all preceding bytes
//
// streamLayout is the one description of it: a wireCoder walks that
// layout to size a stream (WireSize), to encode it and to decode it.
const (
	wireMagic   = 0x4c525153 // "SQRL" read as a little-endian u32
	wireVersion = 1
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// The bounds on decoded counts and lengths, so a corrupt or malicious
// stream cannot trigger huge allocations; Encode refuses a stream that
// breaks them too. A shipped block is logical data, so it is never
// longer than the largest block size a volume accepts.
const (
	maxWireName  = 4096
	maxWireCount = 16 << 20
	maxWireBlock = uint32(block.Size1024K)
)

// streamLayout names every field of the format in wire order.
func streamLayout(c *wireCoder, st *Stream) {
	magic, version := uint32(wireMagic), uint16(wireVersion)
	c.u32(&magic)
	c.u16(&version)
	if magic != wireMagic || version != wireVersion {
		c.fail(fmt.Errorf("zvol: wire magic %#x version %d, want a version %d stream", magic, version, wireVersion))
	}
	c.str(&st.FromSnap)
	c.str(&st.ToSnap)
	c.time(&st.Created)
	for i, n := 0, c.count(len(st.Deletes), maxWireCount); c.more(i, n); i++ {
		c.str(entry(c, &st.Deletes, i))
	}
	blocks := c.blocks(st)
	for i, n := 0, c.count(len(st.Upserts), maxWireCount); c.more(i, n); i++ {
		o := entry(c, &st.Upserts, i)
		c.str(&o.Name)
		c.i64(&o.Size)
		for j, m := 0, c.count(len(o.Ptrs), maxWireCount); c.more(j, m); j++ {
			p := entry(c, &o.Ptrs, j)
			c.bit(&p.Zero)
			c.i32(&p.LogLen)
			c.index(&p.Payload, blocks)
			c.raw(p.Hash[:])
		}
	}
	got, want := c.crc, c.crc // the trailer: the CRC of every byte before it
	c.u32(&got)
	if got != want {
		c.fail(fmt.Errorf("zvol: wire checksum mismatch: %08x != %08x", got, want))
	}
}

// WireSize returns exactly how many bytes Encode writes, computed from
// the stream's lengths alone — a Send-built stream's from its block
// pointers' logical lengths, nothing inflated — so a caller can charge a
// transfer, or give the wire buffer its final size, without encoding.
// (SizeBytes is the coarser figure the network accounting charges; this
// one follows the layout field by field.)
func (st *Stream) WireSize() int64 {
	var c wireCoder
	streamLayout(&c, st)
	return c.n
}

// Encode writes the stream in wire format. The returned byte count is the
// exact on-wire size. The wire carries logical blocks: a Send-built
// stream's stored payloads are inflated through the sender's codec as
// they are written, so its bytes are those of the same stream decoded
// off a wire.
func (st *Stream) Encode(w io.Writer) (int64, error) {
	c := wireCoder{w: bufio.NewWriterSize(w, maxWireName)}
	if streamLayout(&c, st); c.err == nil {
		c.err = c.w.Flush()
	}
	return c.n, c.err
}

// DecodeStream parses a wire-format stream, verifying the trailing CRC.
// Memory is bounded by the input: every count and length is checked
// against its bound before anything is allocated for it, and decoded
// lists grow one entry at a time, so no allocation runs more than one
// block ahead of the bytes read. The stream it accepts re-encodes to
// exactly the bytes it read, a prefix of its input: bytes after the
// trailer are ignored (FuzzDecodeStream holds it to both).
func DecodeStream(r io.Reader) (*Stream, error) {
	st := &Stream{}
	c := wireCoder{r: bufio.NewReaderSize(r, maxWireName)}
	if streamLayout(&c, st); c.err != nil {
		return nil, c.err
	}
	return st, nil
}

// wireCoder walks streamLayout once, n counting the bytes it moves. The
// zero coder sizes: it only counts. One with w encodes, writing each
// field to w, and one with r decodes, reading each from r, both through
// crc. The first error sticks and makes every later field a no-op, so a
// decode stops reading, and allocating, at its first refusal. Fields
// move by value or through heap memory (the stream's, bufio's), never
// through the coder itself, so it stays on its caller's stack: WireSize
// allocates nothing.
type wireCoder struct {
	n   int64
	crc uint32
	err error
	w   *bufio.Writer
	r   *bufio.Reader
}

func (c *wireCoder) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// more says whether a list walk goes on to entry i of n: not past an error.
func (c *wireCoder) more(i, n int) bool { return i < n && c.err == nil }

// entry returns &(*s)[i], growing *s by one zero entry first if decoding.
func entry[T any](c *wireCoder, s *[]T, i int) *T {
	if c.r != nil {
		var zero T
		*s = append(*s, zero)
	}
	return &(*s)[i]
}

// setDecoded stores v in *p when decoding. Fields are written only
// then: Encode may run on a stream other goroutines read.
func setDecoded[T any](c *wireCoder, p *T, v T) {
	if c.r != nil {
		*p = v
	}
}

// put writes b through the CRC.
func (c *wireCoder) put(b []byte) {
	c.crc = crc32.Update(c.crc, crcTable, b)
	c.n += int64(len(b))
	if _, err := c.w.Write(b); err != nil {
		c.fail(err)
	}
}

// room returns the writer's spare buffer, empty, flushed first if it
// has less than n bytes of room, for a field to be appended to and put.
func (c *wireCoder) room(n int) []byte {
	if c.w.Available() < n {
		if err := c.w.Flush(); err != nil {
			c.fail(err)
		}
	}
	return c.w.AvailableBuffer()
}

// peek returns the next n bytes, at most the reader's size, through the
// CRC, for the caller to use and then Discard, which cannot fail on
// bytes Peek returned.
func (c *wireCoder) peek(n int) []byte {
	b, err := c.r.Peek(n)
	if err != nil {
		c.truncated(err)
	}
	c.crc = crc32.Update(c.crc, crcTable, b)
	c.n += int64(len(b))
	return b
}

func (c *wireCoder) truncated(err error) {
	c.fail(fmt.Errorf("zvol: wire stream truncated at byte %d: %w", c.n, err))
}

// word moves the low size bytes of v and returns the value a decode
// read, v itself otherwise.
func (c *wireCoder) word(size int, v uint64) uint64 {
	switch {
	case c.err != nil:
	case c.w != nil:
		c.put(binary.LittleEndian.AppendUint64(c.room(8), v)[:size])
	case c.r != nil:
		var le [8]byte
		c.r.Discard(copy(le[:], c.peek(size)))
		v = binary.LittleEndian.Uint64(le[:])
	default:
		c.n += int64(size)
	}
	return v
}

func (c *wireCoder) u8(p *uint8)   { setDecoded(c, p, uint8(c.word(1, uint64(*p)))) }
func (c *wireCoder) u16(p *uint16) { setDecoded(c, p, uint16(c.word(2, uint64(*p)))) }
func (c *wireCoder) u32(p *uint32) { setDecoded(c, p, uint32(c.word(4, uint64(*p)))) }
func (c *wireCoder) i32(p *int32)  { setDecoded(c, p, int32(c.word(4, uint64(*p)))) }
func (c *wireCoder) i64(p *int64)  { setDecoded(c, p, int64(c.word(8, uint64(*p)))) }

// count moves a u32 count or length, refused over max, and returns it.
func (c *wireCoder) count(n int, max uint32) int {
	v := uint32(n)
	if c.u32(&v); v > max {
		c.fail(fmt.Errorf("zvol: wire count or length %d exceeds %d", v, max))
		return 0
	}
	return int(v)
}

// str moves a u32-length string of at most maxWireName bytes.
func (c *wireCoder) str(p *string) {
	n := c.count(len(*p), maxWireName)
	switch {
	case c.err != nil:
	case c.w != nil:
		c.put(append(c.room(n), *p...))
	case c.r != nil:
		b := c.peek(n)
		*p = string(b)
		c.r.Discard(len(b))
	default:
		c.n += int64(n)
	}
}

// raw moves len(b) bytes, into b when decoding.
func (c *wireCoder) raw(b []byte) {
	switch {
	case c.err != nil:
	case c.w != nil:
		c.put(b)
	case c.r != nil:
		if _, err := io.ReadFull(c.r, b); err != nil {
			c.truncated(err)
		}
		c.crc = crc32.Update(c.crc, crcTable, b)
		c.n += int64(len(b))
	default:
		c.n += int64(len(b))
	}
}

// blob moves a u32-length byte string of at most maxWireBlock bytes, which
// a decode allocates only once the length has passed that bound.
func (c *wireCoder) blob(p *[]byte) {
	if n := c.count(len(*p), maxWireBlock); c.r != nil && c.err == nil {
		*p = make([]byte, n)
	}
	c.raw(*p)
}

// bit moves *p as a flags byte whose bit 0 is *p; any other bit is
// refused, as Encode cannot have set it.
func (c *wireCoder) bit(p *bool) {
	var flags uint8
	if *p {
		flags = 1
	}
	if c.u8(&flags); flags&^1 != 0 {
		c.fail(fmt.Errorf("zvol: wire pointer flags %#x", flags))
	}
	setDecoded(c, p, flags == 1)
}

// index moves *p as an i32: a shipped block's index, refused at or past
// blocks, or negative for a hash-only reference.
func (c *wireCoder) index(p *int, blocks int) {
	v := int32(*p)
	if c.i32(&v); v >= 0 && int(v) >= blocks {
		c.fail(fmt.Errorf("zvol: wire payload index %d out of range", v))
	}
	setDecoded(c, p, int(v))
}

// time moves *p as unix nanoseconds, decoded in UTC.
func (c *wireCoder) time(p *time.Time) {
	ns := p.UnixNano()
	c.i64(&ns)
	setDecoded(c, p, time.Unix(0, ns).UTC())
}

// blocks moves the shipped blocks, u32 count × blob, and returns their
// count. An encode writes the logical bytes eachBlock hands out, a
// decode reads each into Blocks, and sizing takes their lengths from
// shipped, inflating nothing.
func (c *wireCoder) blocks(st *Stream) int {
	count, size := st.shipped()
	n := c.count(count, maxWireCount)
	switch {
	case c.err != nil:
	case c.w != nil:
		c.fail(st.eachBlock(func(b []byte) error {
			c.blob(&b)
			return c.err
		}))
	case c.r != nil:
		for i := 0; c.more(i, n); i++ {
			c.blob(entry(c, &st.Blocks, i))
		}
	default:
		c.n += 4*int64(n) + size
	}
	return n
}
