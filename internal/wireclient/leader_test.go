package wireclient_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/ctlplane"
	"repro/internal/wireclient"
	"repro/internal/wireproto"
)

// scriptedDaemon accepts one connection, shakes hands and hands the
// connection to serve. The listener and the connection close at cleanup.
func scriptedDaemon(t *testing.T, serve func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
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
		serve(conn)
	}()
	return ln.Addr().String()
}

// infoBody is the TInfo reply body a daemon naming itself version sends.
func infoBody(version string) []byte {
	body, err := ctlplane.AppendInfoReply(nil, ctlplane.Info{Version: version})
	if err != nil {
		panic(err)
	}
	return body
}

// settledGoroutines is runtime.NumGoroutine once it has held still for
// 10 ms (at most 1 s), so goroutines already on their way out — an
// earlier test's, or the dialer's connect watcher — are not counted.
func settledGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(time.Second); still < 10 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// A call whose context expires while it holds the read token returns
// ctx.Err() without consuming any of the frame that arrives later: the
// late reply is read whole, and discarded, by the next call, which gets
// its own reply.
func TestLeaderCancelKeepsStreamInSync(t *testing.T) {
	addr := scriptedDaemon(t, func(conn net.Conn) {
		first, err := wireproto.ReadFrame(conn)
		if err != nil {
			return
		}
		// The second request is sent only once the first call gave up.
		second, err := wireproto.ReadFrame(conn)
		if err != nil {
			return
		}
		fw := wireproto.NewWriter(conn)
		_ = fw.WriteFrame(wireproto.Frame{Type: first.Type, ReqID: first.ReqID, Payload: []byte(`{"Version":"late"}`)})
		_ = fw.WriteFrame(wireproto.Frame{Type: second.Type, ReqID: second.ReqID, Payload: infoBody("second")})
		_, _ = wireproto.ReadFrame(conn) // parks until the client closes
	})
	c, err := wireclient.Dial(wireclient.Options{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	gaveUp := make(chan error, 1)
	go func() {
		_, err := c.SyncNode(ctx, "node00")
		gaveUp <- err
	}()
	select {
	case err := <-gaveUp:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("expired call returned %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(time.Second):
		t.Fatal("call still parked 1s after its 50ms deadline")
	}

	info, err := c.Info()
	if err != nil {
		t.Fatalf("call after the cancelled one: %v", err)
	}
	if info.Version != "second" {
		t.Fatalf("second call got body %q, want its own (\"second\")", info.Version)
	}
}

// awaitReaderHeld waits until some call on c holds the read token.
func awaitReaderHeld(t *testing.T, c *wireclient.Client) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); !wireclient.ReaderHeld(c); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no call took the read token within 1s")
		}
	}
}

// A call that holds the read token routes the replies of other calls
// on the same client: the daemon answers a second call while it holds
// back the first call's reply, so only the first call, which holds the
// token, can read the second reply. And no call in flight means no
// goroutine: Dial starts none.
func TestFollowerReplyRoutedByLeader(t *testing.T) {
	idle := scriptedDaemon(t, func(conn net.Conn) {
		_, _ = wireproto.ReadFrame(conn) // parks until the client closes
	})
	before := settledGoroutines()
	ic, err := wireclient.Dial(wireclient.Options{Addr: idle})
	if err != nil {
		t.Fatal(err)
	}
	defer ic.Close()
	if after := settledGoroutines(); after != before {
		t.Fatalf("an idle dialed client left %d goroutines running, want 0", after-before)
	}

	routed := make(chan struct{}) // closed once the second call returned
	addr := scriptedDaemon(t, func(conn net.Conn) {
		first, err := wireproto.ReadFrame(conn)
		if err != nil {
			return
		}
		second, err := wireproto.ReadFrame(conn)
		if err != nil {
			return
		}
		fw := wireproto.NewWriter(conn)
		_ = fw.WriteFrame(wireproto.Frame{Type: second.Type, ReqID: second.ReqID, Payload: []byte(`{"Counters":"second"}`)})
		select {
		case <-routed:
		case <-time.After(2 * time.Second):
		}
		_ = fw.WriteFrame(wireproto.Frame{Type: first.Type, ReqID: first.ReqID, Payload: infoBody("first")})
		_, _ = wireproto.ReadFrame(conn) // parks until the client closes
	})
	c, err := wireclient.Dial(wireclient.Options{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	firstDone := make(chan error, 1)
	go func() {
		info, err := c.Info()
		if err == nil && info.Version != "first" {
			err = fmt.Errorf("got body %q, want its own (\"first\")", info.Version)
		}
		firstDone <- err
	}()
	// Only the first call is in flight, so it is the one holding the
	// token, and it keeps it until its own reply, which the daemon holds
	// back until the second call has returned.
	awaitReaderHeld(t, c)
	secondDone := make(chan error, 1)
	go func() {
		got, err := c.PeerCounters()
		if err == nil && got != "second" {
			err = fmt.Errorf("got body %q, want its own (\"second\")", got)
		}
		secondDone <- err
	}()
	select {
	case err := <-secondDone:
		if err != nil {
			t.Fatalf("second call: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("the token holder did not route the second call's reply within 1s")
	}
	close(routed)
	if err := <-firstDone; err != nil {
		t.Fatalf("first call: %v", err)
	}
}

// A watch abandoned mid-stream leaves the client usable: a goroutine
// reads the rest of the stream, and a later call gets its own reply.
func TestAbandonedWatchLeavesClientUsable(t *testing.T) {
	addr, _ := startDaemon(t, ctlplane.Options{Images: 2, Nodes: 2, Traced: true}, "127.0.0.1:0")
	c, err := wireclient.Dial(wireclient.Options{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	enough := errors.New("enough")
	err = c.Watch(context.Background(), ctlplane.WatchArgs{Every: 200 * time.Microsecond, Count: 2000},
		func(ctlplane.WatchUpdate) error { return enough })
	if !errors.Is(err, enough) {
		t.Fatalf("abandoned watch returned %v, want the callback's error", err)
	}
	time.Sleep(50 * time.Millisecond) // far more stream frames arrive than a stream's buffer holds
	called := make(chan error, 1)
	go func() {
		_, err := c.Health()
		called <- err
	}()
	select {
	case err := <-called:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("call after an abandoned watch still parked after 1s")
	}
}

// The rest of an abandoned watch is read even while the client makes no
// call: the daemon streams on until the watch's end, and a stream nobody
// reads would fill the socket until the daemon's write timed out and it
// broke the connection. The scripted daemon writes 64 MiB after the
// abandon, more than loopback socket buffers hold, each frame under a 1s
// write deadline, while the client sits idle.
func TestAbandonedWatchIsReadToItsEnd(t *testing.T) {
	streamed := make(chan error, 1)
	addr := scriptedDaemon(t, func(conn net.Conn) {
		w, err := wireproto.ReadFrame(conn)
		if err != nil {
			streamed <- err
			return
		}
		fw := wireproto.NewWriter(conn)
		elem := wireproto.Frame{Type: w.Type, Flags: wireproto.FlagResponse | wireproto.FlagStream, ReqID: w.ReqID, Payload: []byte(`{}`)}
		if err := fw.WriteFrame(elem); err != nil {
			streamed <- err
			return
		}
		elem.Payload = make([]byte, 64<<10)
		for i := 0; i < 1024; i++ {
			_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
			if err := fw.WriteFrame(elem); err != nil {
				streamed <- fmt.Errorf("element %d: %w", i, err)
				return
			}
		}
		err = fw.WriteFrame(wireproto.Frame{Type: w.Type, Flags: wireproto.FlagResponse, ReqID: w.ReqID})
		streamed <- err
		if err != nil {
			return
		}
		_ = conn.SetWriteDeadline(time.Time{})
		r, err := wireproto.ReadFrame(conn)
		if err != nil {
			return
		}
		_ = fw.WriteFrame(wireproto.Frame{Type: r.Type, Flags: wireproto.FlagResponse, ReqID: r.ReqID, Payload: infoBody("after")})
		_, _ = wireproto.ReadFrame(conn) // parks until the client closes
	})
	c, err := wireclient.Dial(wireclient.Options{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	enough := errors.New("enough")
	err = c.Watch(context.Background(), ctlplane.WatchArgs{Every: time.Millisecond, Count: 1026},
		func(ctlplane.WatchUpdate) error { return enough })
	if !errors.Is(err, enough) {
		t.Fatalf("abandoned watch returned %v, want the callback's error", err)
	}
	select {
	case err := <-streamed:
		if err != nil {
			t.Fatalf("daemon could not write the abandoned stream to an idle client: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("abandoned stream still being written after 10s")
	}
	info, err := c.Info()
	if err != nil {
		t.Fatalf("call after the abandoned stream: %v", err)
	}
	if info.Version != "after" {
		t.Fatalf("call after the abandoned stream got body %q, want its own (\"after\")", info.Version)
	}
}

// A token holder never waits on a slow stream consumer: a call with a
// 50 ms deadline that reads the socket while a watch's callback is
// stuck, and routes more stream elements than the watch's buffer holds,
// still returns DeadlineExceeded on time. Once the callback resumes,
// the watch gets every element in order, then its end.
func TestSlowStreamConsumerDoesNotDelayDeadline(t *testing.T) {
	const elems = 64 // a stream's buffer holds 16
	addr := scriptedDaemon(t, func(conn net.Conn) {
		w, err := wireproto.ReadFrame(conn)
		if err != nil {
			return
		}
		fw := wireproto.NewWriter(conn)
		for i := 1; i <= elems; i++ {
			_ = fw.WriteFrame(wireproto.Frame{Type: w.Type, Flags: wireproto.FlagResponse | wireproto.FlagStream, ReqID: w.ReqID,
				Payload: fmt.Appendf(nil, `{"Seq":%d}`, i)})
		}
		_ = fw.WriteFrame(wireproto.Frame{Type: w.Type, Flags: wireproto.FlagResponse, ReqID: w.ReqID})
		_, _ = wireproto.ReadFrame(conn) // the unary request, never answered
		_, _ = wireproto.ReadFrame(conn) // parks until the client closes
	})
	c, err := wireclient.Dial(wireclient.Options{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stuck, resume := make(chan struct{}), make(chan struct{})
	var seqs []int
	watched := make(chan error, 1)
	go func() {
		watched <- c.Watch(context.Background(), ctlplane.WatchArgs{Every: time.Millisecond, Count: elems},
			func(u ctlplane.WatchUpdate) error {
				if seqs = append(seqs, u.Seq); len(seqs) == 1 {
					close(stuck)
					<-resume
				}
				return nil
			})
	}()
	<-stuck
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	gaveUp := make(chan error, 1)
	go func() {
		_, err := c.SyncNode(ctx, "node00")
		gaveUp <- err
	}()
	select {
	case err := <-gaveUp:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call returned %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(time.Second):
		t.Fatal("call still parked 1s after its 50ms deadline, behind a stuck stream consumer")
	}
	close(resume)
	if err := <-watched; err != nil {
		t.Fatalf("watch: %v", err)
	}
	for i, seq := range seqs {
		if seq != i+1 {
			t.Fatalf("watch got elements %v, want 1..%d in order", seqs, elems)
		}
	}
	if len(seqs) != elems {
		t.Fatalf("watch got %d elements, want %d", len(seqs), elems)
	}
}
