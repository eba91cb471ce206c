package wireclient_test

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/ctlplane"
	"repro/internal/wireclient"
	"repro/internal/wireproto"
)

// Closing the client while a watch's consumer is slower than the stream
// used to panic the whole process with "send on closed channel": fail
// closed the stream's channel from the receiving side while the client's
// socket reader was blocked sending into its full buffer. The channel is
// now never closed: whoever holds the read token spills what a full
// channel cannot take into the stream's queue instead of waiting, and the
// consumer and every waiter watch one stop channel.
func TestCloseDuringSlowWatch(t *testing.T) {
	addr, _ := startDaemon(t, ctlplane.Options{Images: 2, Nodes: 2, Traced: true}, "127.0.0.1:0")
	c, err := wireclient.Dial(wireclient.Options{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	first := make(chan struct{})
	watched := make(chan error, 1)
	go func() {
		seen := 0
		watched <- c.Watch(context.Background(), ctlplane.WatchArgs{Every: 200 * time.Microsecond, Count: 2000},
			func(ctlplane.WatchUpdate) error {
				if seen++; seen == 1 {
					close(first)
				}
				time.Sleep(20 * time.Millisecond) // far slower than the stream: its buffer fills
				return nil
			})
	}()
	<-first
	time.Sleep(60 * time.Millisecond) // let the stream's buffer fill and its queue grow
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-watched:
		if !errors.Is(err, wireclient.ErrClosed) {
			t.Fatalf("watch across Close returned %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watch still parked 10s after Close")
	}
	if _, err := c.Stats(); !errors.Is(err, wireclient.ErrClosed) {
		t.Fatalf("call after Close returned %v, want ErrClosed", err)
	}
}

// A unary call parked on a daemon that never answers is released by
// Close with ErrClosed.
func TestCloseUnparksUnaryCall(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan struct{})
	go func() { // a squirreld that shakes hands, reads one request, and goes quiet
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := wireproto.ReadHello(conn); err != nil {
			return
		}
		if err := wireproto.WriteHelloReply(conn, wireproto.HelloOK, ""); err != nil {
			return
		}
		if _, err := wireproto.ReadFrame(conn); err == nil {
			close(got)
		}
		_, _ = wireproto.ReadFrame(conn) // parks until the client closes
	}()
	c, err := wireclient.Dial(wireclient.Options{Addr: ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	called := make(chan error, 1)
	go func() {
		_, err := c.Health()
		called <- err
	}()
	<-got
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-called:
		if !errors.Is(err, wireclient.ErrClosed) {
			t.Fatalf("parked call returned %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("call still parked 10s after Close")
	}
}
