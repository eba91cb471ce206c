package ctlplane

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/peer"
)

// The fixed binary bodies (ops.go says which ops carry them, and why).
// Each is described once, by a layout function that names every field in
// wire order; a coder walks that one layout to size a body, to encode it
// and to decode it, so the three cannot drift apart. Little-endian:
//
//	BootRequest: str Image | str Node | flags (Verify, SkipCache)
//	BootReport:  str ImageID | str NodeID | str PeerNode | flags (Warm, Healed) |
//	             i64 NetworkBytes | i64 CacheBytes | i64 ReadBytes | i64 PeerBytes |
//	             i64 PeerFallbacks | i64 HedgesFired | i64 HedgesWon |
//	             i64 BreakerTrips | f64 PeerStallSec
//	HealthReply: list of NodeStatus
//	NodeStatus:  str NodeID | str State | str Snapshot | str Breaker |
//	             flags (Online, Lagging, Withdrawn, Unreachable) |
//	             i64 CorruptBlocks | i64 ViewLeases | i64 ViewStale |
//	             time LastScrub | time DownSince
//	InfoReply:   str Version | list of str Images | list of str ComputeNodes |
//	             i64 CacheBytes
//	StatsReply:  i64 × every integer field of core.DeploymentStats in
//	             declaration order, SCVolume's inline, with SCVolume.DedupRatio
//	             an f64 | str IndexSource | list of PeerLoad
//	PeerLoad:    str NodeID | i64 Active | i64 ServedReads | i64 ServedBytes
//	NetRxReply:  i64 bytes
//
// where str is a u16 byte length and the bytes; flags is one byte whose
// bit i is the i-th bool named; f64 is the IEEE-754 bits as an i64; list
// is a u32 count and that many entries; time is a u8 length and that many
// bytes of time.Time's MarshalBinary, which keeps the zone offset, or a
// zero length for the zero time.Time.
//
// A decoder checks every length before it reads, refuses a list count
// the remaining bytes cannot hold before it allocates the list, and
// refuses unknown flag bits, trailing bytes and any time MarshalBinary
// would not write back, so a body that decodes re-encodes
// byte-identically. A list decodes to a non-nil slice, empty or not, as
// ctlplane.Local returns them. Every string a decoder returns is a
// substring of one string(body) conversion, so a body's strings cost one
// allocation, not one each. An encoder sizes the body first and grows dst
// once; it refuses a string longer than a u16 can count. Unlike a JSON
// body, a field added to one of these structs does not cross the wire
// until its layout names it: Test*CarriesEveryField fails until it does.

// errBadBody marks a binary body that does not decode or encode;
// badBody wraps it with the name of the body that failed.
var errBadBody = errors.New("ctlplane: bad body")

func badBody(body string, err error) error {
	return fmt.Errorf("%w: %s: %v", errBadBody, body, err)
}

// AppendBootRequest appends r's TBoot request body to dst.
func AppendBootRequest(dst []byte, r core.BootRequest) ([]byte, error) {
	var c coder
	bootRequest(&c, &r)
	if err := c.grow(dst); err != nil {
		return nil, badBody("boot request", err)
	}
	bootRequest(&c, &r)
	return c.b, nil
}

// DecodeBootRequest decodes a TBoot request body.
func DecodeBootRequest(b []byte) (core.BootRequest, error) {
	var r core.BootRequest
	c := decoder(b)
	bootRequest(&c, &r)
	if err := c.done(); err != nil {
		return core.BootRequest{}, badBody("boot request", err)
	}
	return r, nil
}

func bootRequest(c *coder, r *core.BootRequest) {
	c.str(&r.Image)
	c.str(&r.Node)
	c.flags(&r.Verify, &r.SkipCache)
}

// AppendBootReport appends r's TBoot response body to dst.
func AppendBootReport(dst []byte, r core.BootReport) ([]byte, error) {
	var c coder
	bootReport(&c, &r)
	if err := c.grow(dst); err != nil {
		return nil, badBody("boot report", err)
	}
	bootReport(&c, &r)
	return c.b, nil
}

// DecodeBootReport decodes a TBoot response body.
func DecodeBootReport(b []byte) (core.BootReport, error) {
	var r core.BootReport
	c := decoder(b)
	bootReport(&c, &r)
	if err := c.done(); err != nil {
		return core.BootReport{}, badBody("boot report", err)
	}
	return r, nil
}

func bootReport(c *coder, r *core.BootReport) {
	c.str(&r.ImageID)
	c.str(&r.NodeID)
	c.str(&r.PeerNode)
	c.flags(&r.Warm, &r.Healed)
	c.i64(&r.NetworkBytes)
	c.i64(&r.CacheBytes)
	c.i64(&r.ReadBytes)
	c.i64(&r.PeerBytes)
	c.int(&r.PeerFallbacks)
	c.int(&r.HedgesFired)
	c.int(&r.HedgesWon)
	c.int(&r.BreakerTrips)
	c.f64(&r.PeerStallSec)
}

// AppendHealthReply appends rows' THealth response body to dst.
func AppendHealthReply(dst []byte, rows []core.NodeStatus) ([]byte, error) {
	var c coder
	healthReply(&c, &rows)
	if err := c.grow(dst); err != nil {
		return nil, badBody("health reply", err)
	}
	healthReply(&c, &rows)
	return c.b, nil
}

// DecodeHealthReply decodes a THealth response body.
func DecodeHealthReply(b []byte) ([]core.NodeStatus, error) {
	var rows []core.NodeStatus
	c := decoder(b)
	healthReply(&c, &rows)
	if err := c.done(); err != nil {
		return nil, badBody("health reply", err)
	}
	return rows, nil
}

func healthReply(c *coder, rows *[]core.NodeStatus) {
	rs := list(c, rows, minNodeStatus)
	for i := range rs {
		nodeStatus(c, &rs[i])
	}
}

func nodeStatus(c *coder, r *core.NodeStatus) {
	c.str(&r.NodeID)
	c.str((*string)(&r.State))
	c.str(&r.Snapshot)
	c.str(&r.Breaker)
	c.flags(&r.Online, &r.Lagging, &r.Withdrawn, &r.Unreachable)
	c.int(&r.CorruptBlocks)
	c.int(&r.ViewLeases)
	c.int(&r.ViewStale)
	c.time(&r.LastScrub)
	c.time(&r.DownSince)
}

// AppendInfoReply appends info's TInfo response body to dst.
func AppendInfoReply(dst []byte, info Info) ([]byte, error) {
	var c coder
	infoReply(&c, &info)
	if err := c.grow(dst); err != nil {
		return nil, badBody("info reply", err)
	}
	infoReply(&c, &info)
	return c.b, nil
}

// DecodeInfoReply decodes a TInfo response body.
func DecodeInfoReply(b []byte) (Info, error) {
	var info Info
	c := decoder(b)
	infoReply(&c, &info)
	if err := c.done(); err != nil {
		return Info{}, badBody("info reply", err)
	}
	return info, nil
}

func infoReply(c *coder, info *Info) {
	c.str(&info.Version)
	images := list(c, &info.Images, minString)
	for i := range images {
		c.str(&images[i])
	}
	nodes := list(c, &info.ComputeNodes, minString)
	for i := range nodes {
		c.str(&nodes[i])
	}
	c.i64(&info.CacheBytes)
}

// AppendStatsReply appends st's TStats response body to dst.
func AppendStatsReply(dst []byte, st core.DeploymentStats) ([]byte, error) {
	var c coder
	statsReply(&c, &st)
	if err := c.grow(dst); err != nil {
		return nil, badBody("stats reply", err)
	}
	statsReply(&c, &st)
	return c.b, nil
}

// DecodeStatsReply decodes a TStats response body.
func DecodeStatsReply(b []byte) (core.DeploymentStats, error) {
	var st core.DeploymentStats
	c := decoder(b)
	statsReply(&c, &st)
	if err := c.done(); err != nil {
		return core.DeploymentStats{}, badBody("stats reply", err)
	}
	return st, nil
}

func statsReply(c *coder, st *core.DeploymentStats) {
	c.int(&st.RegisteredImages)
	c.int(&st.ComputeNodes)
	c.int(&st.OnlineNodes)
	v := &st.SCVolume
	c.i64(&v.Objects)
	c.i64(&v.Snapshots)
	c.i64(&v.LogicalBytes)
	c.i64(&v.ZeroBytes)
	c.i64(&v.DataBytes)
	c.i64(&v.DDTDiskBytes)
	c.i64(&v.DDTMemBytes)
	c.i64(&v.MetaBytes)
	c.i64(&v.DiskBytes)
	c.i64(&v.UniqueBlocks)
	c.i64(&v.References)
	c.f64(&v.DedupRatio)
	c.i64(&st.ReplicaDiskBytes)
	c.i64(&st.ReplicaMemBytes)
	c.int(&st.StaleReplicas)
	c.int(&st.LaggingNodes)
	c.int(&st.DamagedNodes)
	c.int(&st.PeerIndexObjects)
	c.int(&st.PeerIndexEntries)
	c.i64(&st.GossipRound)
	c.int(&st.GossipStale)
	c.str(&st.IndexSource)
	loads := list(c, &st.PeerLoads, minPeerLoad)
	for i := range loads {
		peerLoad(c, &loads[i])
	}
}

func peerLoad(c *coder, ld *peer.NodeLoad) {
	c.str(&ld.NodeID)
	c.int(&ld.Active)
	c.i64(&ld.ServedReads)
	c.i64(&ld.ServedBytes)
}

// AppendNetRxReply appends the TNetRx response body, the compute nodes'
// received-byte total, to dst.
func AppendNetRxReply(dst []byte, n int64) ([]byte, error) {
	var c coder
	c.i64(&n)
	if err := c.grow(dst); err != nil {
		return nil, badBody("netrx reply", err)
	}
	c.i64(&n)
	return c.b, nil
}

// DecodeNetRxReply decodes a TNetRx response body.
func DecodeNetRxReply(b []byte) (int64, error) {
	var n int64
	c := decoder(b)
	c.i64(&n)
	if err := c.done(); err != nil {
		return 0, badBody("netrx reply", err)
	}
	return n, nil
}

// The smallest encoding of a list entry, which bounds the count a body
// of a given length can hold; each is its layout's size of a zero entry.
var (
	minString     = sizeOf(func(c *coder) { c.str(new(string)) })
	minNodeStatus = sizeOf(func(c *coder) { nodeStatus(c, new(core.NodeStatus)) })
	minPeerLoad   = sizeOf(func(c *coder) { peerLoad(c, new(peer.NodeLoad)) })
)

func sizeOf(layout func(*coder)) int {
	var c coder
	layout(&c)
	return c.off
}

// coderMode is the walk a coder makes of a layout.
type coderMode uint8

const (
	sizing coderMode = iota
	encoding
	decoding
)

// coder walks a layout once per mode, each field moving off past its
// bytes. A zero coder sizes: off ends at the body's length. grow turns it
// into an encoder that writes each field at off in b, which already has
// room for all of them. decoder(body) makes one that reads each field at
// off in b. A field that b cannot hold is left zero and moves off past
// len(b) for good, so every later read is short too and done reports the
// short body; any other bad value sticks in err and empties b. Fields
// move off and never write b's slice header, and i64, int and f64 are
// small enough to inline into their layout.
type coder struct {
	mode coderMode
	off  int
	b    []byte
	err  error
	// s is string(b), made at a decode's first non-empty string: str
	// returns substrings of it.
	s string
}

func decoder(body []byte) coder {
	return coder{mode: decoding, b: body}
}

// grow ends the sizing walk: it returns the walk's error, or makes c an
// encoder of the body into dst's spare capacity, grown to fit. (Not
// slices.Grow: under the race detector that allocates twice.)
func (c *coder) grow(dst []byte) error {
	if c.err != nil {
		return c.err
	}
	n := len(dst)
	if cap(dst)-n < c.off {
		dst = append(make([]byte, 0, n+c.off), dst...)
	}
	c.mode, c.b, c.off = encoding, dst[:n+c.off], n
	return nil
}

// done is the decode's verdict: the first error, a short body or
// trailing bytes.
func (c *coder) done() error {
	switch {
	case c.err != nil:
	case c.off > len(c.b):
		c.err = fmt.Errorf("%d bytes, need at least %d", len(c.b), c.off)
	case c.off < len(c.b):
		c.err = fmt.Errorf("%d trailing bytes", len(c.b)-c.off)
	}
	return c.err
}

// fail records err, unless an earlier error stands; a decode also drops
// the body, so every later read is short.
func (c *coder) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	if c.mode == decoding {
		c.b = c.b[:0]
	}
}

func (c *coder) i64(p *int64) {
	o := c.off
	c.off += 8
	switch c.mode {
	case encoding:
		binary.LittleEndian.PutUint64(c.b[o:], uint64(*p))
	case decoding:
		if c.off <= len(c.b) {
			*p = int64(binary.LittleEndian.Uint64(c.b[o:]))
		}
	}
}

// int codes *p as an i64.
func (c *coder) int(p *int) {
	v := int64(*p)
	c.i64(&v)
	if c.mode == decoding {
		*p = int(v)
	}
}

// f64 codes *p's IEEE-754 bits as an i64.
func (c *coder) f64(p *float64) {
	v := int64(math.Float64bits(*p))
	c.i64(&v)
	if c.mode == decoding {
		*p = math.Float64frombits(uint64(v))
	}
}

func (c *coder) str(p *string) {
	o := c.off
	c.off += 2
	switch c.mode {
	case sizing:
		if len(*p) > math.MaxUint16 {
			c.fail(fmt.Errorf("a %d-byte string does not fit a u16 length", len(*p)))
		}
		c.off += len(*p)
	case encoding:
		binary.LittleEndian.PutUint16(c.b[o:], uint16(len(*p)))
		c.off += copy(c.b[c.off:], *p)
	case decoding:
		if c.off > len(c.b) {
			return
		}
		n := int(binary.LittleEndian.Uint16(c.b[o:]))
		if c.off += n; n == 0 || c.off > len(c.b) {
			return
		}
		if c.s == "" {
			c.s = string(c.b)
		}
		*p = c.s[o+2 : c.off]
	}
}

// flags codes the bools as one byte, the i-th bool as bit i.
func (c *coder) flags(bits ...*bool) {
	o := c.off
	c.off++
	switch c.mode {
	case encoding:
		var f byte
		for i, p := range bits {
			if *p {
				f |= 1 << i
			}
		}
		c.b[o] = f
	case decoding:
		if c.off > len(c.b) {
			return
		}
		f := c.b[o]
		if unknown := f >> len(bits) << len(bits); unknown != 0 {
			c.fail(fmt.Errorf("unknown flag bits %#x", unknown))
			return
		}
		for i, p := range bits {
			*p = f&(1<<i) != 0
		}
	}
}

// time codes *p as a u8 length and its MarshalBinary bytes, or a zero
// length for the zero time.Time. A decode refuses bytes UnmarshalBinary
// takes but MarshalBinary would not write back: a v2 encoding of a
// whole-minute offset, nanoseconds that do not fit the time's 30 bits,
// the zero time at full length.
func (c *coder) time(p *time.Time) {
	o := c.off
	c.off++
	if c.mode == decoding {
		if c.off <= len(c.b) {
			c.readTime(p, int(c.b[o]))
		}
		return
	}
	var enc []byte
	if *p != (time.Time{}) {
		var err error
		if enc, err = p.MarshalBinary(); err != nil {
			c.fail(err)
		}
	}
	if c.mode == encoding {
		c.b[o] = byte(len(enc))
		copy(c.b[c.off:], enc)
	}
	c.off += len(enc)
}

// readTime reads the n bytes of a time whose length time has read.
func (c *coder) readTime(p *time.Time, n int) {
	o := c.off
	if c.off += n; n == 0 || c.off > len(c.b) {
		return
	}
	enc := c.b[o:c.off]
	if err := p.UnmarshalBinary(enc); err != nil {
		c.fail(err)
		return
	}
	if again, _ := p.MarshalBinary(); *p == (time.Time{}) || !bytes.Equal(again, enc) {
		c.fail(fmt.Errorf("time %x is not as MarshalBinary writes it", enc))
	}
}

// list codes a u32 entry count and returns the list for the layout to
// walk. A decode refuses a count the remaining bytes cannot hold at min
// bytes an entry, so a hostile count allocates nothing, and otherwise
// sets *p to a new list of that many zero entries.
func list[T any](c *coder, p *[]T, min int) []T {
	o := c.off
	c.off += 4
	switch c.mode {
	case encoding:
		binary.LittleEndian.PutUint32(c.b[o:], uint32(len(*p)))
	case decoding:
		if c.off > len(c.b) {
			return nil
		}
		n := binary.LittleEndian.Uint32(c.b[o:])
		if left := len(c.b) - c.off; uint64(n) > uint64(left/min) {
			c.fail(fmt.Errorf("%d entries cannot fit in %d bytes", n, left))
			return nil
		}
		*p = make([]T, n)
	}
	return *p
}
