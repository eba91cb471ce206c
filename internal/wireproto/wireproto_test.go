package wireproto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: TRegister, ReqID: 1, Payload: []byte(`{"image":"im0"}`)},
		{Type: TBoot, Flags: FlagResponse, ReqID: 1 << 40, Payload: nil},
		{Type: TTelemetry, Flags: FlagResponse | FlagError, ReqID: 7,
			Payload: EncodeError(CodeUnknownImage, "core: unknown image: x")},
		{Type: 255, ReqID: ^uint64(0), Payload: bytes.Repeat([]byte{0xAA}, 64<<10)},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	for i, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: read: %v", i, err)
		}
		if got.Type != want.Type || got.Flags != want.Flags || got.ReqID != want.ReqID ||
			!bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("%d trailing bytes after decoding all frames", buf.Len())
	}
}

func TestReadFrameRejectsOversizedLength(t *testing.T) {
	var hdr [headerLen]byte
	hdr[0] = TBoot
	binary.LittleEndian.PutUint32(hdr[10:14], MaxPayload+1)
	_, err := ReadFrame(bytes.NewReader(hdr[:]))
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized length: got %v, want ErrTooLarge", err)
	}
}

func TestReadFrameRejectsTruncation(t *testing.T) {
	full := AppendFrame(nil, Frame{Type: TSync, ReqID: 9, Payload: []byte("abcdef")})
	for n := 0; n < len(full); n++ {
		if _, err := ReadFrame(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("truncated at %d/%d bytes: decode succeeded", n, len(full))
		}
	}
}

func TestReadFrameRejectsCorruption(t *testing.T) {
	full := AppendFrame(nil, Frame{Type: TSync, ReqID: 9, Payload: []byte("abcdef")})
	for i := range full {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x40
		f, err := ReadFrame(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		// The only undetectable flips would be CRC collisions; a single
		// bit flip never collides with CRC32C, so any success here must
		// be a bug — unless the flip landed in the length field and the
		// reader consumed a differently-framed but CRC-valid message,
		// which a single flip also cannot produce.
		t.Fatalf("flip at byte %d: decode succeeded with %+v", i, f)
	}
}

func TestReadFrameRejectsTypeZero(t *testing.T) {
	// A CRC-valid frame whose type byte is zero must still be rejected.
	full := AppendFrame(nil, Frame{ReqID: 1, Payload: []byte("x")})
	if _, err := ReadFrame(bytes.NewReader(full)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("type 0: got %v, want ErrBadFrame", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHello(&buf); err != nil {
		t.Fatal(err)
	}
	v, err := ReadHello(&buf)
	if err != nil || v != Version {
		t.Fatalf("hello: version %d err %v", v, err)
	}

	buf.Reset()
	if err := WriteHelloReply(&buf, HelloVersionMismatch, "server v1, client v9"); err != nil {
		t.Fatal(err)
	}
	ver, status, msg, err := ReadHelloReply(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ver != Version || status != HelloVersionMismatch || !strings.Contains(msg, "client v9") {
		t.Fatalf("reply: ver=%d status=%d msg=%q", ver, status, msg)
	}
}

func TestHelloRejectsBadMagic(t *testing.T) {
	if _, err := ReadHello(strings.NewReader("NOPE\x01\x00\x00\x00")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: got %v", err)
	}
	if _, _, _, err := ReadHelloReply(strings.NewReader("NOPE\x01\x00\x00\x00\x00\x00\x00")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad reply magic: got %v", err)
	}
}

func TestHelloReplyRejectsOversizedMessage(t *testing.T) {
	buf := make([]byte, 0, 16)
	buf = append(buf, Magic...)
	buf = binary.LittleEndian.AppendUint16(buf, Version)
	buf = append(buf, HelloOK)
	buf = binary.LittleEndian.AppendUint32(buf, maxHelloMsg+1)
	if _, _, _, err := ReadHelloReply(bytes.NewReader(buf)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized hello msg: got %v", err)
	}
}

func TestErrorBodyRoundTrip(t *testing.T) {
	for _, code := range []uint16{CodeGeneric, CodeUnknownImage, CodeOverloaded, CodeDraining} {
		body := EncodeError(code, "some failure: detail")
		got, msg, err := DecodeError(body)
		if err != nil {
			t.Fatal(err)
		}
		if got != code || msg != "some failure: detail" {
			t.Fatalf("code %d: got %d %q", code, got, msg)
		}
	}
	// Malformed bodies: short, truncated message, trailing junk.
	for _, p := range [][]byte{nil, {1, 0}, EncodeError(1, "abc")[:7], append(EncodeError(1, "abc"), 'x')} {
		if _, _, err := DecodeError(p); err == nil {
			t.Fatalf("malformed body %v: decode succeeded", p)
		}
	}
}

func TestWriteFrameRejectsOversizedPayload(t *testing.T) {
	err := WriteFrame(io.Discard, Frame{Type: TInfo, Payload: make([]byte, MaxPayload+1)})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized write: got %v", err)
	}
}

// writeCounter records each Write it receives.
type writeCounter struct{ writes [][]byte }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

// A Writer hands each frame to the stream in exactly one Write, reusing
// its buffer across frames of different sizes (a long one, then a short
// one must not drag the long one's tail along), and refuses an oversized
// payload without writing anything.
func TestWriterOneWritePerFrame(t *testing.T) {
	var sink writeCounter
	fw := NewWriter(&sink)
	frames := []Frame{
		{Type: TStats, Flags: FlagResponse, ReqID: 1, Payload: bytes.Repeat([]byte("x"), 4000)},
		{Type: TNetRx, Flags: FlagResponse | FlagTrace, ReqID: 2, TraceID: 7, SpanID: 9, Payload: []byte(`{"Bytes":1}`)},
		{Type: TInfo, ReqID: 3},
	}
	for _, f := range frames {
		if err := fw.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.WriteFrame(Frame{Type: TInfo, Payload: make([]byte, MaxPayload+1)}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized write: got %v", err)
	}
	if len(sink.writes) != len(frames) {
		t.Fatalf("%d writes for %d frames", len(sink.writes), len(frames))
	}
	for i, want := range frames {
		if !bytes.Equal(sink.writes[i], AppendFrame(nil, want)) {
			t.Fatalf("frame %d: the write is not the frame's encoding", i)
		}
		got, err := ReadFrame(bytes.NewReader(sink.writes[i]))
		if err != nil || got.ReqID != want.ReqID || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: decoded %+v, %v", i, got, err)
		}
	}
}
