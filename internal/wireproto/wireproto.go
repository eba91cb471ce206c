// Package wireproto frames Squirrel's control plane for the wire.
//
// squirreld and its clients speak a versioned, length-prefixed binary
// protocol over TCP, reusing the encode/decode discipline of the
// snapshot stream codec in internal/zvol/wire.go: a magic-tagged
// handshake, fixed little-endian headers, hard bounds on every decoded
// length, and a CRC32 (Castagnoli) trailer so a corrupt frame is an
// error, never a panic or an unbounded allocation.
//
// Connection life cycle:
//
//	client → server  hello:  magic "SQCP" | u16 proto version | u16 reserved
//	server → client  reply:  magic "SQCP" | u16 proto version | u8 status |
//	                         u32 msgLen | msg
//	then both sides exchange frames until either closes the connection.
//
// There is one protocol version. Both hellos carry it: a server answers
// a client hello naming any other version with HelloVersionMismatch and
// a message naming both versions, and a client refuses a HelloOK whose
// echoed version is not its own.
//
// Frame layout (everything little-endian):
//
//	u8 type | u8 flags | u64 reqID | u32 payloadLen |
//	[u64 traceID | u64 spanID — iff FlagTrace] |
//	payload [payloadLen] | u32 crc32c over header+extension+payload
//
// Request IDs are assigned by the client and echoed by the server, so
// responses may arrive out of order and clients can pipeline requests
// on one connection. FlagResponse marks a server frame; FlagError marks
// a response whose payload is an encoded error body (EncodeError) in
// place of the result, carrying a numeric code from the sentinel family
// so errors.Is identity — and squirrelctl's exit codes 2–5 — survive
// the wire.
//
// FlagTrace marks a request carrying a 16-byte trace context between
// the header and the payload: the caller's trace ID and the caller-side
// span the request was issued under. The daemon stamps both on its
// dispatch span, which is how one operation renders as a single tree
// across the socket. FlagStream marks a response frame that is one
// element of a streaming reply (the watch op): stream frames share the
// request's ID, and the stream ends with a final response frame without
// FlagStream.
//
// This package is framing only: payload semantics (which Go structs
// ride inside which frame type) belong to internal/ctlplane, and it
// deliberately imports nothing beyond the standard library so the fuzz
// harness exercises exactly the code an untrusted peer can reach.
package wireproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Magic tags both directions of the handshake; it never changes across
// protocol versions so a mismatched peer still gets a readable reply.
const Magic = "SQCP"

// Version is the protocol version this build speaks, and the only one
// it accepts from a peer. It changes when the framing or the body format
// of an existing frame type changes.
const Version uint16 = 5

// Size bounds. A control-plane payload is a few KB of JSON (telemetry
// snapshots are the largest); MaxPayload leaves generous headroom while
// bounding the worst-case allocation a hostile length prefix can force.
const (
	// MaxPayload bounds one frame's payload.
	MaxPayload = 8 << 20
	// MaxErrorMsg bounds the message inside an error body.
	MaxErrorMsg = 64 << 10
	// maxHelloMsg bounds the handshake reply's message.
	maxHelloMsg = 4 << 10

	headerLen = 1 + 1 + 8 + 4 // type | flags | reqID | payloadLen
	traceLen  = 8 + 8         // traceID | spanID (present iff FlagTrace)
	helloLen  = 4 + 2 + 2     // magic | version | reserved
)

// Frame types. One type serves both directions: the request and its
// response share the type byte and differ in FlagResponse.
const (
	TInfo uint8 = iota + 1
	TRegister
	TBoot
	TSync
	THealth
	TTelemetry
	TPeers
	TStats
	TSetOnline
	TDropReplica
	TCrash
	TRestart
	TRot
	TSetFaults
	TScrubAll
	TResilverAll
	TGC
	_ // 18, reserved: a retired trace fetch; type numbers are wire format
	TNetReset
	TNetRx
	TWatch     // streaming telemetry watch
	TTraceTree // fetch dispatch trees for a client trace ID
	TWorkload  // drive a workload scenario on the daemon
)

// typeNames backs TypeName; indexed by frame type.
var typeNames = [...]string{
	TInfo:        "info",
	TRegister:    "register",
	TBoot:        "boot",
	TSync:        "sync",
	THealth:      "health",
	TTelemetry:   "telemetry",
	TPeers:       "peers",
	TStats:       "stats",
	TSetOnline:   "setOnline",
	TDropReplica: "dropReplica",
	TCrash:       "crash",
	TRestart:     "restart",
	TRot:         "rot",
	TSetFaults:   "setFaults",
	TScrubAll:    "scrubAll",
	TResilverAll: "resilverAll",
	TGC:          "gc",
	TNetReset:    "netReset",
	TNetRx:       "netRx",
	TWatch:       "watch",
	TTraceTree:   "traceTree",
	TWorkload:    "workload",
}

// TypeName returns a short name for a frame type ("boot", "watch", …)
// for span annotations and log lines; unknown types render numerically.
func TypeName(t uint8) string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return fmt.Sprintf("type%d", t)
}

// Frame flags.
const (
	// FlagResponse marks a frame traveling server → client.
	FlagResponse uint8 = 1 << 0
	// FlagError marks a response whose payload is an error body.
	FlagError uint8 = 1 << 1
	// FlagTrace marks a frame carrying the 16-byte trace extension
	// (TraceID, SpanID) between header and payload.
	FlagTrace uint8 = 1 << 2
	// FlagStream marks a response frame that is one element of a
	// streaming reply; the stream's final frame clears it.
	FlagStream uint8 = 1 << 3
)

// Handshake reply statuses.
const (
	// HelloOK accepts the connection; frames may flow.
	HelloOK uint8 = iota
	// HelloVersionMismatch rejects a client speaking another protocol
	// version; the reply message names both versions.
	HelloVersionMismatch
	// HelloBusy rejects a connection over the daemon's limit (or one
	// arriving while it drains for shutdown). Transient: retry later.
	HelloBusy
)

// Error codes carried by error bodies. Codes 2–5 are chosen to equal
// squirrelctl's exit codes for the matching core sentinels, so a script
// driving a remote daemon sees exactly the exit codes it would see
// in-process.
const (
	CodeOK           uint16 = 0
	CodeGeneric      uint16 = 1
	CodeUnknownImage uint16 = 2
	CodeUnknownNode  uint16 = 3
	CodeNodeOffline  uint16 = 4
	CodeOverloaded   uint16 = 5
	CodeRegistered   uint16 = 6
	CodeUnreachable  uint16 = 7
	CodeCanceled     uint16 = 8
	CodeDeadline     uint16 = 9
	CodeDraining     uint16 = 10
	CodeBadRequest   uint16 = 11
)

// Decode failure sentinels. Wrapped (with detail) by ReadFrame and the
// handshake readers, so transports can tell a framing violation (close
// the connection — the stream is out of sync) from plain io errors.
var (
	// ErrBadMagic is returned when a handshake does not start with Magic.
	ErrBadMagic = errors.New("wireproto: bad magic")
	// ErrTooLarge is returned when a length prefix exceeds its bound.
	ErrTooLarge = errors.New("wireproto: length exceeds bound")
	// ErrChecksum is returned when a frame's CRC trailer does not match.
	ErrChecksum = errors.New("wireproto: frame checksum mismatch")
	// ErrBadFrame is returned for structurally invalid frames or bodies.
	ErrBadFrame = errors.New("wireproto: malformed frame")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Frame is one protocol message in either direction. TraceID and
// SpanID ride the wire only when Flags has FlagTrace set; encoders
// ignore them otherwise, and decoders leave them zero.
type Frame struct {
	Type    uint8
	Flags   uint8
	ReqID   uint64
	TraceID uint64
	SpanID  uint64
	Payload []byte
}

// IsError reports whether the frame carries an error body.
func (f Frame) IsError() bool { return f.Flags&FlagError != 0 }

// IsStream reports whether the frame is an element of a streaming reply
// (more frames with the same request ID follow).
func (f Frame) IsStream() bool { return f.Flags&FlagStream != 0 }

// AppendFrame appends f's wire encoding to dst and returns the extended
// slice. It does not bound the payload; Writer and WriteFrame do.
func AppendFrame(dst []byte, f Frame) []byte {
	start := len(dst)
	dst = append(dst, f.Type, f.Flags)
	dst = binary.LittleEndian.AppendUint64(dst, f.ReqID)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Payload)))
	if f.Flags&FlagTrace != 0 {
		dst = binary.LittleEndian.AppendUint64(dst, f.TraceID)
		dst = binary.LittleEndian.AppendUint64(dst, f.SpanID)
	}
	dst = append(dst, f.Payload...)
	crc := crc32.Checksum(dst[start:], crcTable)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// Writer sends frames down one stream through one reused buffer: each
// frame is encoded into the buffer and handed to the underlying writer in
// a single Write — one syscall per frame on a net.Conn, no second copy,
// and no allocation once the buffer has grown to the stream's largest
// frame. It is not safe for concurrent use: the owner serializes senders,
// as it must anyway to keep frames whole.
type Writer struct {
	w   io.Writer
	buf []byte
}

// NewWriter returns a Writer sending to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// WriteFrame encodes f and writes it. A payload over MaxPayload is
// refused before anything is encoded.
func (fw *Writer) WriteFrame(f Frame) error {
	if len(f.Payload) > MaxPayload {
		return fmt.Errorf("%w: payload %d > %d", ErrTooLarge, len(f.Payload), MaxPayload)
	}
	if need := headerLen + traceLen + len(f.Payload) + 4; cap(fw.buf) < need {
		fw.buf = make([]byte, 0, need)
	}
	fw.buf = AppendFrame(fw.buf[:0], f)
	_, err := fw.w.Write(fw.buf)
	return err
}

// WriteFrame encodes one frame to w in a single Write: the one-shot form
// of Writer, for callers that send a frame or two.
func WriteFrame(w io.Writer, f Frame) error { return NewWriter(w).WriteFrame(f) }

// ReadFrame decodes one frame from r, verifying bounds before any
// allocation and the CRC trailer after. Any violation is an error;
// ReadFrame never panics and never allocates more than MaxPayload.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, fmt.Errorf("wireproto: frame header: %w", err)
	}
	f := Frame{
		Type:  hdr[0],
		Flags: hdr[1],
		ReqID: binary.LittleEndian.Uint64(hdr[2:10]),
	}
	n := binary.LittleEndian.Uint32(hdr[10:14])
	if n > MaxPayload {
		return Frame{}, fmt.Errorf("%w: payload %d > %d", ErrTooLarge, n, MaxPayload)
	}
	if f.Type == 0 {
		return Frame{}, fmt.Errorf("%w: frame type 0", ErrBadFrame)
	}
	crc := crc32.Update(0, crcTable, hdr[:])
	if f.Flags&FlagTrace != 0 {
		var ext [traceLen]byte
		if _, err := io.ReadFull(r, ext[:]); err != nil {
			return Frame{}, fmt.Errorf("wireproto: trace extension: %w", err)
		}
		f.TraceID = binary.LittleEndian.Uint64(ext[0:8])
		f.SpanID = binary.LittleEndian.Uint64(ext[8:16])
		crc = crc32.Update(crc, crcTable, ext[:])
	}
	if n > 0 {
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, fmt.Errorf("wireproto: frame payload: %w", err)
		}
		crc = crc32.Update(crc, crcTable, f.Payload)
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return Frame{}, fmt.Errorf("wireproto: frame trailer: %w", err)
	}
	if got := binary.LittleEndian.Uint32(trailer[:]); got != crc {
		return Frame{}, fmt.Errorf("%w: %08x != %08x", ErrChecksum, got, crc)
	}
	return f, nil
}

// WriteHello sends the client side of the handshake.
func WriteHello(w io.Writer) error {
	var buf [helloLen]byte
	copy(buf[:4], Magic)
	binary.LittleEndian.PutUint16(buf[4:6], Version)
	_, err := w.Write(buf[:])
	return err
}

// ReadHello reads a client hello and returns the version the peer
// speaks. A version mismatch is NOT an error here: the server decides,
// so it can reply with a message naming both versions before closing.
func ReadHello(r io.Reader) (version uint16, err error) {
	var buf [helloLen]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("wireproto: hello: %w", err)
	}
	if string(buf[:4]) != Magic {
		return 0, fmt.Errorf("%w: %q", ErrBadMagic, buf[:4])
	}
	return binary.LittleEndian.Uint16(buf[4:6]), nil
}

// WriteHelloReply sends the server side of the handshake, naming this
// build's version.
func WriteHelloReply(w io.Writer, status uint8, msg string) error {
	if len(msg) > maxHelloMsg {
		msg = msg[:maxHelloMsg]
	}
	buf := make([]byte, 0, 4+2+1+4+len(msg))
	buf = append(buf, Magic...)
	buf = binary.LittleEndian.AppendUint16(buf, Version)
	buf = append(buf, status)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(msg)))
	buf = append(buf, msg...)
	_, err := w.Write(buf)
	return err
}

// ReadHelloReply reads the server's handshake reply: the version the
// server speaks, an acceptance status, and a human-readable message
// (empty on HelloOK).
func ReadHelloReply(r io.Reader) (version uint16, status uint8, msg string, err error) {
	var buf [4 + 2 + 1 + 4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, 0, "", fmt.Errorf("wireproto: hello reply: %w", err)
	}
	if string(buf[:4]) != Magic {
		return 0, 0, "", fmt.Errorf("%w: %q", ErrBadMagic, buf[:4])
	}
	version = binary.LittleEndian.Uint16(buf[4:6])
	status = buf[6]
	n := binary.LittleEndian.Uint32(buf[7:11])
	if n > maxHelloMsg {
		return 0, 0, "", fmt.Errorf("%w: hello message %d > %d", ErrTooLarge, n, maxHelloMsg)
	}
	if n > 0 {
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			return 0, 0, "", fmt.Errorf("wireproto: hello message: %w", err)
		}
		msg = string(b)
	}
	return version, status, msg, nil
}

// EncodeError builds an error body: u16 code | u32 msgLen | msg.
func EncodeError(code uint16, msg string) []byte {
	if len(msg) > MaxErrorMsg {
		msg = msg[:MaxErrorMsg]
	}
	buf := make([]byte, 0, 2+4+len(msg))
	buf = binary.LittleEndian.AppendUint16(buf, code)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(msg)))
	return append(buf, msg...)
}

// DecodeError parses an error body.
func DecodeError(p []byte) (code uint16, msg string, err error) {
	if len(p) < 6 {
		return 0, "", fmt.Errorf("%w: error body %d bytes", ErrBadFrame, len(p))
	}
	code = binary.LittleEndian.Uint16(p[:2])
	n := binary.LittleEndian.Uint32(p[2:6])
	if n > MaxErrorMsg {
		return 0, "", fmt.Errorf("%w: error message %d > %d", ErrTooLarge, n, MaxErrorMsg)
	}
	if uint64(len(p)) != 6+uint64(n) {
		return 0, "", fmt.Errorf("%w: error body %d bytes, want %d", ErrBadFrame, len(p), 6+n)
	}
	return code, string(p[6:]), nil
}
