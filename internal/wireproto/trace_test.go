package wireproto

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestTraceExtensionRoundTrip pins the traced frame layout: FlagTrace
// inserts exactly 16 extension bytes between header and payload, both
// IDs survive the round trip, and frames without the flag carry no
// extension.
func TestTraceExtensionRoundTrip(t *testing.T) {
	in := Frame{Type: TBoot, Flags: FlagTrace, ReqID: 99, TraceID: 1 << 40, SpanID: 7, Payload: []byte("hello")}
	enc := AppendFrame(nil, in)
	plain := AppendFrame(nil, Frame{Type: TBoot, ReqID: 99, Payload: []byte("hello")})
	if len(enc) != len(plain)+traceLen {
		t.Fatalf("trace extension adds %d bytes, want %d", len(enc)-len(plain), traceLen)
	}
	out, err := ReadFrame(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if out.TraceID != in.TraceID || out.SpanID != in.SpanID || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}
	if !out.IsStream() && out.Flags&FlagTrace == 0 {
		t.Fatal("FlagTrace lost in round trip")
	}
	// Without the flag the IDs stay off the wire entirely.
	dropped, err := ReadFrame(bytes.NewReader(plain))
	if err != nil {
		t.Fatal(err)
	}
	if dropped.TraceID != 0 || dropped.SpanID != 0 {
		t.Fatalf("untraced frame decoded trace context: %+v", dropped)
	}
}

// TestTraceExtensionCoveredByCRC flips one extension byte and expects a
// checksum failure — the trace context is inside the integrity envelope.
func TestTraceExtensionCoveredByCRC(t *testing.T) {
	enc := AppendFrame(nil, Frame{Type: TBoot, Flags: FlagTrace, ReqID: 1, TraceID: 5, SpanID: 6})
	enc[headerLen+2] ^= 0xFF
	if _, err := ReadFrame(bytes.NewReader(enc)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted trace extension: got %v, want ErrChecksum", err)
	}
}

// TestHelloWireLayout pins the handshake bytes: magic, little-endian
// version, then two reserved bytes (hello) or status, message length,
// and message (reply). ReadHello reports a foreign version instead of
// failing, so the server can name both versions in its rejection.
func TestHelloWireLayout(t *testing.T) {
	var hello bytes.Buffer
	if err := WriteHello(&hello); err != nil {
		t.Fatal(err)
	}
	if got, want := hello.String(), "SQCP\x05\x00\x00\x00"; got != want {
		t.Fatalf("hello bytes %q, want %q", got, want)
	}
	var reply bytes.Buffer
	if err := WriteHelloReply(&reply, HelloBusy, "hi"); err != nil {
		t.Fatal(err)
	}
	if got, want := reply.String(), "SQCP\x05\x00\x02\x02\x00\x00\x00hi"; got != want {
		t.Fatalf("reply bytes %q, want %q", got, want)
	}
	for _, foreign := range []string{"SQCP\x01\x00\x00\x00", "SQCP\x2b\x00\x00\x00"} {
		ver, err := ReadHello(strings.NewReader(foreign))
		if err != nil || ver != uint16(foreign[4]) {
			t.Fatalf("ReadHello(%q) = (%d,%v), want (%d,nil)", foreign, ver, err, foreign[4])
		}
	}
}

// TestTypeName spot-checks the annotation names and the unknown-type
// fallback.
func TestTypeName(t *testing.T) {
	if got := TypeName(TBoot); got != "boot" {
		t.Fatalf("TypeName(TBoot) = %q", got)
	}
	if got := TypeName(TWatch); got != "watch" {
		t.Fatalf("TypeName(TWatch) = %q", got)
	}
	if got := TypeName(200); !strings.HasPrefix(got, "type") {
		t.Fatalf("TypeName(200) = %q", got)
	}
}
