package ctlplane

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
)

// TBoot bodies are fixed binary, not JSON: the boot is the hot path of
// the whole system, and its round trip is small enough that encoding/json
// was about a sixth of the daemon's CPU on a warm boot. Layout,
// little-endian:
//
//	BootRequest: str Image | str Node | u8 flags (1 Verify, 2 SkipCache)
//	BootReport:  str ImageID | str NodeID | str PeerNode |
//	             u8 flags (1 Warm, 2 Healed) |
//	             i64 NetworkBytes | i64 CacheBytes | i64 ReadBytes |
//	             i64 PeerBytes | i64 PeerFallbacks | i64 HedgesFired |
//	             i64 HedgesWon | i64 BreakerTrips | u64 PeerStallSec (IEEE-754 bits)
//
// where str is a u16 byte length and the bytes. The decoders check every
// length before slicing and refuse unknown flag bits and trailing bytes,
// so a body that decodes re-encodes byte-identically. Unlike a JSON body,
// a field added to either struct does not cross the wire until it is
// added here (TestBootBodiesCarryEveryField fails until it is).

const (
	bootVerify    = 1 << 0
	bootSkipCache = 1 << 1

	reportWarm   = 1 << 0
	reportHealed = 1 << 1
)

// errBadBody marks a binary body (TBoot's request or report, THealth's
// reply) that does not decode or encode; badBody wraps it with the name
// of the body that failed.
var errBadBody = errors.New("ctlplane: bad body")

func badBody(body string, err error) error {
	return fmt.Errorf("%w: %s: %v", errBadBody, body, err)
}

// AppendBootRequest appends r's TBoot request body to dst.
func AppendBootRequest(dst []byte, r core.BootRequest) ([]byte, error) {
	dst, err := appendStrings(dst, r.Image, r.Node)
	if err != nil {
		return nil, badBody("boot request", err)
	}
	var flags byte
	if r.Verify {
		flags |= bootVerify
	}
	if r.SkipCache {
		flags |= bootSkipCache
	}
	return append(dst, flags), nil
}

// DecodeBootRequest decodes a TBoot request body.
func DecodeBootRequest(b []byte) (core.BootRequest, error) {
	var r core.BootRequest
	d := bodyDecoder{b: b}
	r.Image = d.str()
	r.Node = d.str()
	flags := d.flags(bootVerify | bootSkipCache)
	if err := d.done(); err != nil {
		return core.BootRequest{}, badBody("boot request", err)
	}
	r.Verify = flags&bootVerify != 0
	r.SkipCache = flags&bootSkipCache != 0
	return r, nil
}

// AppendBootReport appends r's TBoot response body to dst.
func AppendBootReport(dst []byte, r core.BootReport) ([]byte, error) {
	dst, err := appendStrings(dst, r.ImageID, r.NodeID, r.PeerNode)
	if err != nil {
		return nil, badBody("boot report", err)
	}
	var flags byte
	if r.Warm {
		flags |= reportWarm
	}
	if r.Healed {
		flags |= reportHealed
	}
	dst = append(dst, flags)
	for _, v := range [...]int64{
		r.NetworkBytes, r.CacheBytes, r.ReadBytes, r.PeerBytes,
		int64(r.PeerFallbacks), int64(r.HedgesFired), int64(r.HedgesWon), int64(r.BreakerTrips),
	} {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.PeerStallSec)), nil
}

// DecodeBootReport decodes a TBoot response body.
func DecodeBootReport(b []byte) (core.BootReport, error) {
	var r core.BootReport
	d := bodyDecoder{b: b}
	r.ImageID = d.str()
	r.NodeID = d.str()
	r.PeerNode = d.str()
	flags := d.flags(reportWarm | reportHealed)
	r.NetworkBytes = d.i64()
	r.CacheBytes = d.i64()
	r.ReadBytes = d.i64()
	r.PeerBytes = d.i64()
	r.PeerFallbacks = int(d.i64())
	r.HedgesFired = int(d.i64())
	r.HedgesWon = int(d.i64())
	r.BreakerTrips = int(d.i64())
	r.PeerStallSec = math.Float64frombits(uint64(d.i64()))
	if err := d.done(); err != nil {
		return core.BootReport{}, badBody("boot report", err)
	}
	r.Warm = flags&reportWarm != 0
	r.Healed = flags&reportHealed != 0
	return r, nil
}

// appendStrings appends each string with its u16 length prefix.
func appendStrings(dst []byte, ss ...string) ([]byte, error) {
	for _, s := range ss {
		if len(s) > math.MaxUint16 {
			return nil, fmt.Errorf("a %d-byte string does not fit a u16 length", len(s))
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
		dst = append(dst, s...)
	}
	return dst, nil
}

// bodyDecoder reads a body front to back. The first short read or bad
// flag byte sticks in err, and every read after it returns zero.
type bodyDecoder struct {
	b   []byte
	err error
	// s, when set, is string(b) as the decode began: str returns
	// substrings of it rather than converting each string on its own.
	s string
}

func (d *bodyDecoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.err = fmt.Errorf("%d bytes left, need %d", len(d.b), n)
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *bodyDecoder) str() string {
	p := d.take(2)
	if p == nil {
		return ""
	}
	n := int(binary.LittleEndian.Uint16(p))
	if p = d.take(n); p == nil || d.s == "" {
		return string(p)
	}
	end := len(d.s) - len(d.b)
	return d.s[end-n : end]
}

func (d *bodyDecoder) u32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (d *bodyDecoder) i64() int64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(p))
}

// flags reads the flags byte, refusing any bit outside known.
func (d *bodyDecoder) flags(known byte) byte {
	p := d.take(1)
	if p == nil {
		return 0
	}
	if p[0]&^known != 0 {
		d.err = fmt.Errorf("unknown flag bits %#x", p[0]&^known)
		return 0
	}
	return p[0]
}

// done is the decode's verdict: the first error, or trailing bytes.
func (d *bodyDecoder) done() error {
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("%d trailing bytes", len(d.b))
	}
	return d.err
}
