package wireclient_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/wireclient"
	"repro/internal/wireproto"
)

// fakeServer answers every client hello with one raw handshake reply —
// the given version, status, and an empty message — and closes. It
// returns the address and a per-handshake counter.
func fakeServer(t *testing.T, replyVer uint16, status uint8) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	reply := append([]byte(nil), wireproto.Magic...)
	reply = binary.LittleEndian.AppendUint16(reply, replyVer)
	reply = append(reply, status)
	reply = binary.LittleEndian.AppendUint32(reply, 0)
	var hellos atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if _, err := wireproto.ReadHello(conn); err == nil {
				hellos.Add(1)
				_, _ = conn.Write(reply)
			}
			conn.Close()
		}
	}()
	return ln.Addr().String(), &hellos
}

// TestDialRejectsOtherVersions: whatever a peer that speaks another
// protocol version replies — an honest HelloVersionMismatch from an
// older or newer server, or a HelloOK echoing the wrong version — Dial
// returns ErrHandshake naming both versions after exactly one
// handshake: no downgrade, no retry spin.
func TestDialRejectsOtherVersions(t *testing.T) {
	cases := []struct {
		name   string
		ver    uint16
		status uint8
	}{
		{"mismatch-older-server", wireproto.Version - 1, wireproto.HelloVersionMismatch},
		{"mismatch-newer-server", wireproto.Version + 1, wireproto.HelloVersionMismatch},
		{"ok-older-version", wireproto.Version - 1, wireproto.HelloOK},
		{"ok-newer-version", wireproto.Version + 1, wireproto.HelloOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr, hellos := fakeServer(t, tc.ver, tc.status)
			c, err := wireclient.Dial(wireclient.Options{Addr: addr})
			if err == nil {
				c.Close()
				t.Fatalf("dial against a v%d peer succeeded", tc.ver)
			}
			if !errors.Is(err, wireclient.ErrHandshake) {
				t.Fatalf("dial returned %v, want ErrHandshake", err)
			}
			for _, want := range []string{fmt.Sprintf("v%d", tc.ver), fmt.Sprintf("v%d", wireproto.Version)} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %s", err, want)
				}
			}
			if got := hellos.Load(); got != 1 {
				t.Fatalf("dial made %d handshakes, want exactly 1", got)
			}
		})
	}
}
