package ctlplane

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
)

// The THealth reply is fixed binary, not JSON: Health is 30 % of the
// control_rpc mix, and on 2 vCPUs the client's json.Unmarshal of its
// reply was 29 % of BenchmarkControlRPC's CPU, the daemon's json.Marshal
// (mostly of that reply) another 13 %. Layout, little-endian, in the
// notation of bootbody.go:
//
//	HealthReply: u32 rows | rows × NodeStatus
//	NodeStatus:  str NodeID | str State | str Snapshot | str Breaker |
//	             u8 flags (1 Online, 2 Lagging, 4 Withdrawn, 8 Unreachable) |
//	             i64 CorruptBlocks | i64 ViewLeases | i64 ViewStale |
//	             time LastScrub | time DownSince
//
// where time is a u8 length and that many bytes of time.Time's
// MarshalBinary, which keeps the zone offset as RFC 3339 JSON did; a zero
// length is the zero time.Time, which a node that was never scrubbed or
// is not down reports. The decoder refuses a row count the remaining
// bytes cannot hold before it allocates the rows, takes every string out
// of one string(body) conversion (ctlbody.go), and, as the TBoot
// decoders do, unknown flag bits, trailing bytes and any time that
// MarshalBinary would not have written, so a body that decodes
// re-encodes byte-identically. TestHealthBodyCarriesEveryField fails
// until a field added to core.NodeStatus is added here.

const (
	healthOnline      = 1 << 0
	healthLagging     = 1 << 1
	healthWithdrawn   = 1 << 2
	healthUnreachable = 1 << 3

	// minHealthRow is the smallest row: four empty strings, the flags
	// byte, three i64s and two zero times.
	minHealthRow = 4*2 + 1 + 3*8 + 2*1
	// maxTimeLen is the most bytes time.Time.MarshalBinary writes.
	maxTimeLen = 16
)

// AppendHealthReply appends rows' THealth response body to dst.
func AppendHealthReply(dst []byte, rows []core.NodeStatus) ([]byte, error) {
	size := 4
	for _, r := range rows {
		size += minHealthRow + len(r.NodeID) + len(r.State) + len(r.Snapshot) + len(r.Breaker) + 2*maxTimeLen
	}
	dst = slices.Grow(dst, size)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rows)))
	for _, r := range rows {
		var err error
		if dst, err = appendStrings(dst, r.NodeID, string(r.State), r.Snapshot, r.Breaker); err != nil {
			return nil, badBody("health reply", err)
		}
		var flags byte
		if r.Online {
			flags |= healthOnline
		}
		if r.Lagging {
			flags |= healthLagging
		}
		if r.Withdrawn {
			flags |= healthWithdrawn
		}
		if r.Unreachable {
			flags |= healthUnreachable
		}
		dst = append(dst, flags)
		for _, v := range [...]int64{int64(r.CorruptBlocks), int64(r.ViewLeases), int64(r.ViewStale)} {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
		}
		for _, t := range [...]time.Time{r.LastScrub, r.DownSince} {
			if dst, err = appendTime(dst, t); err != nil {
				return nil, badBody("health reply", err)
			}
		}
	}
	return dst, nil
}

// DecodeHealthReply decodes a THealth response body.
func DecodeHealthReply(b []byte) ([]core.NodeStatus, error) {
	d := bodyDecoder{b: b, s: string(b)}
	n := d.count(minHealthRow)
	if d.err != nil {
		return nil, badBody("health reply", d.err)
	}
	rows := make([]core.NodeStatus, n)
	for i := range rows {
		r := &rows[i]
		r.NodeID = d.str()
		r.State = core.NodeState(d.str())
		r.Snapshot = d.str()
		r.Breaker = d.str()
		flags := d.flags(healthOnline | healthLagging | healthWithdrawn | healthUnreachable)
		r.Online = flags&healthOnline != 0
		r.Lagging = flags&healthLagging != 0
		r.Withdrawn = flags&healthWithdrawn != 0
		r.Unreachable = flags&healthUnreachable != 0
		r.CorruptBlocks = int(d.i64())
		r.ViewLeases = int(d.i64())
		r.ViewStale = int(d.i64())
		r.LastScrub = d.time()
		r.DownSince = d.time()
	}
	if err := d.done(); err != nil {
		return nil, badBody("health reply", err)
	}
	return rows, nil
}

// appendTime appends t as a u8 length and its MarshalBinary bytes, or a
// zero length for the zero time.Time.
func appendTime(dst []byte, t time.Time) ([]byte, error) {
	if t == (time.Time{}) {
		return append(dst, 0), nil
	}
	p, err := t.MarshalBinary()
	if err != nil {
		return nil, err
	}
	dst = append(dst, byte(len(p)))
	return append(dst, p...), nil
}

// time reads what appendTime wrote, refusing bytes UnmarshalBinary takes
// but appendTime would not write back: a v2 encoding of a whole-minute
// offset, nanoseconds that do not fit the time's 30 bits, the zero time
// at full length.
func (d *bodyDecoder) time() time.Time {
	p := d.take(1)
	if p == nil || p[0] == 0 {
		return time.Time{}
	}
	enc := d.take(int(p[0]))
	if enc == nil {
		return time.Time{}
	}
	var t time.Time
	if err := t.UnmarshalBinary(enc); err != nil {
		d.err = err
		return time.Time{}
	}
	if again, _ := t.MarshalBinary(); t == (time.Time{}) || !bytes.Equal(again, enc) {
		d.err = fmt.Errorf("time %x is not as MarshalBinary writes it", enc)
		return time.Time{}
	}
	return t
}
