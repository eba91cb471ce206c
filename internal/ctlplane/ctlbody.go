package ctlplane

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/peer"
)

// The TInfo, TStats and TNetRx replies are fixed binary, not JSON: with
// THealth's reply binary, the client's json.Unmarshal of the Info and
// Stats replies was the largest user-space cost of the control_rpc mix
// (10.3 % and 5.0 % of BenchmarkControlRPC's CPU on 2 vCPUs; one
// 715-byte Info decode took 23.7 µs, longer than a whole ComputeRx round
// trip). Layout, little-endian, in the notation of bootbody.go:
//
//	InfoReply:  str Version | u32 n | n × str Images |
//	            u32 m | m × str ComputeNodes | i64 CacheBytes
//	StatsReply: i64 × every integer field of core.DeploymentStats in
//	            declaration order, SCVolume's inline, with
//	            SCVolume.DedupRatio as IEEE-754 bits |
//	            str IndexSource | u32 rows | rows × PeerLoad
//	PeerLoad:   str NodeID | i64 Active | i64 ServedReads | i64 ServedBytes
//	NetRxReply: i64 bytes
//
// The decoders keep the health reply's rules: every length is checked
// before slicing, a count the remaining bytes cannot hold is refused
// before the list is allocated, and trailing bytes are refused, so a body
// that decodes re-encodes byte-identically. Every string a decoder
// returns is a substring of one string(body) conversion, so a reply's
// strings cost one allocation, not one each. A list decodes to a non-nil
// slice, empty or not, as ctlplane.Local returns them; a nil list
// therefore comes back empty. TestInfoBodyCarriesEveryField and
// TestStatsBodyCarriesEveryField fail until a field added to Info,
// core.DeploymentStats, zvol.Stats or peer.NodeLoad is added here.

const (
	// statsFixed is the stats reply's run of i64s.
	statsFixed = 24 * 8
	// minListEntry is the smallest string in a list: its u16 length.
	minListEntry = 2
	// minPeerLoad is the smallest PeerLoad row: an empty NodeID and
	// three i64s.
	minPeerLoad = 2 + 3*8
)

// AppendInfoReply appends info's TInfo response body to dst.
func AppendInfoReply(dst []byte, info Info) ([]byte, error) {
	dst = slices.Grow(dst, 2+len(info.Version)+listLen(info.Images)+listLen(info.ComputeNodes)+8)
	dst, err := appendStrings(dst, info.Version)
	if err == nil {
		dst, err = appendStringList(dst, info.Images)
	}
	if err == nil {
		dst, err = appendStringList(dst, info.ComputeNodes)
	}
	if err != nil {
		return nil, badBody("info reply", err)
	}
	return binary.LittleEndian.AppendUint64(dst, uint64(info.CacheBytes)), nil
}

// DecodeInfoReply decodes a TInfo response body.
func DecodeInfoReply(b []byte) (Info, error) {
	d := bodyDecoder{b: b, s: string(b)}
	var info Info
	info.Version = d.str()
	info.Images = d.strList()
	info.ComputeNodes = d.strList()
	info.CacheBytes = d.i64()
	if err := d.done(); err != nil {
		return Info{}, badBody("info reply", err)
	}
	return info, nil
}

// AppendStatsReply appends st's TStats response body to dst.
func AppendStatsReply(dst []byte, st core.DeploymentStats) ([]byte, error) {
	size := statsFixed + 2 + len(st.IndexSource) + 4
	for _, ld := range st.PeerLoads {
		size += minPeerLoad + len(ld.NodeID)
	}
	dst = slices.Grow(dst, size)
	v := &st.SCVolume
	for _, n := range [...]int64{
		int64(st.RegisteredImages), int64(st.ComputeNodes), int64(st.OnlineNodes),
		v.Objects, v.Snapshots, v.LogicalBytes, v.ZeroBytes, v.DataBytes,
		v.DDTDiskBytes, v.DDTMemBytes, v.MetaBytes, v.DiskBytes, v.UniqueBlocks, v.References,
		int64(math.Float64bits(v.DedupRatio)),
		st.ReplicaDiskBytes, st.ReplicaMemBytes,
		int64(st.StaleReplicas), int64(st.LaggingNodes), int64(st.DamagedNodes),
		int64(st.PeerIndexObjects), int64(st.PeerIndexEntries),
		st.GossipRound, int64(st.GossipStale),
	} {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(n))
	}
	dst, err := appendStrings(dst, st.IndexSource)
	if err != nil {
		return nil, badBody("stats reply", err)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(st.PeerLoads)))
	for _, ld := range st.PeerLoads {
		if dst, err = appendStrings(dst, ld.NodeID); err != nil {
			return nil, badBody("stats reply", err)
		}
		for _, n := range [...]int64{int64(ld.Active), ld.ServedReads, ld.ServedBytes} {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(n))
		}
	}
	return dst, nil
}

// DecodeStatsReply decodes a TStats response body.
func DecodeStatsReply(b []byte) (core.DeploymentStats, error) {
	d := bodyDecoder{b: b, s: string(b)}
	var st core.DeploymentStats
	v := &st.SCVolume
	st.RegisteredImages = int(d.i64())
	st.ComputeNodes = int(d.i64())
	st.OnlineNodes = int(d.i64())
	v.Objects = d.i64()
	v.Snapshots = d.i64()
	v.LogicalBytes = d.i64()
	v.ZeroBytes = d.i64()
	v.DataBytes = d.i64()
	v.DDTDiskBytes = d.i64()
	v.DDTMemBytes = d.i64()
	v.MetaBytes = d.i64()
	v.DiskBytes = d.i64()
	v.UniqueBlocks = d.i64()
	v.References = d.i64()
	v.DedupRatio = math.Float64frombits(uint64(d.i64()))
	st.ReplicaDiskBytes = d.i64()
	st.ReplicaMemBytes = d.i64()
	st.StaleReplicas = int(d.i64())
	st.LaggingNodes = int(d.i64())
	st.DamagedNodes = int(d.i64())
	st.PeerIndexObjects = int(d.i64())
	st.PeerIndexEntries = int(d.i64())
	st.GossipRound = d.i64()
	st.GossipStale = int(d.i64())
	st.IndexSource = d.str()
	if n := d.count(minPeerLoad); d.err == nil {
		st.PeerLoads = make([]peer.NodeLoad, n)
		for i := range st.PeerLoads {
			ld := &st.PeerLoads[i]
			ld.NodeID = d.str()
			ld.Active = int(d.i64())
			ld.ServedReads = d.i64()
			ld.ServedBytes = d.i64()
		}
	}
	if err := d.done(); err != nil {
		return core.DeploymentStats{}, badBody("stats reply", err)
	}
	return st, nil
}

// AppendNetRxReply appends the TNetRx response body, the compute nodes'
// received-byte total, to dst.
func AppendNetRxReply(dst []byte, n int64) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(n))
}

// DecodeNetRxReply decodes a TNetRx response body.
func DecodeNetRxReply(b []byte) (int64, error) {
	d := bodyDecoder{b: b}
	n := d.i64()
	if err := d.done(); err != nil {
		return 0, badBody("netrx reply", err)
	}
	return n, nil
}

// listLen is the encoded size of ss as appendStringList writes it.
func listLen(ss []string) int {
	n := 4
	for _, s := range ss {
		n += 2 + len(s)
	}
	return n
}

// appendStringList appends a u32 count and each string with its u16
// length prefix.
func appendStringList(dst []byte, ss []string) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ss)))
	return appendStrings(dst, ss...)
}

// count reads a u32 list length, refusing one the remaining bytes cannot
// hold at min bytes an entry, so a hostile count allocates nothing.
func (d *bodyDecoder) count(min int) int {
	n := d.u32()
	if d.err == nil && uint64(n) > uint64(len(d.b)/min) {
		d.err = fmt.Errorf("%d entries cannot fit in %d bytes", n, len(d.b))
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// strList reads what appendStringList wrote.
func (d *bodyDecoder) strList() []string {
	n := d.count(minListEntry)
	if d.err != nil {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = d.str()
	}
	return ss
}
