package daemon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/obs"
	"repro/internal/wireproto"
)

// serveSession brings up a daemon over sess on a loopback port; it is
// drained when the test or benchmark ends.
func serveSession(tb testing.TB, sess ctlplane.Session, cfg Config) *Server {
	tb.Helper()
	cfg.Addr = "127.0.0.1:0"
	srv := New(sess, cfg)
	if err := srv.Listen(); err != nil {
		tb.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			tb.Errorf("Shutdown: %v", err)
		}
		if err := <-served; err != nil {
			tb.Errorf("Serve: %v", err)
		}
	})
	return srv
}

// rawDial opens a connection and shakes hands, for tests that need to
// put frames on the wire in an exact order.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	if err := wireproto.WriteHello(conn); err != nil {
		t.Fatal(err)
	}
	if _, status, msg, err := wireproto.ReadHelloReply(conn); err != nil || status != wireproto.HelloOK {
		t.Fatalf("handshake: status %d %q err %v", status, msg, err)
	}
	return conn
}

// request builds request frame id of type typ with args as its body,
// encoded as a client encodes it.
func request(t *testing.T, typ uint8, id uint64, args any) wireproto.Frame {
	t.Helper()
	f := wireproto.Frame{Type: typ, ReqID: id}
	if args != nil {
		body, err := encodeArgs(typ, args)
		if err != nil {
			t.Fatal(err)
		}
		f.Payload = body
	}
	return f
}

// markedOps are the frame types the reader serves under its serving mark,
// written out: those that take a context, mutate the deployment, or walk
// the telemetry registry or the span ring, and so may outlive the
// hand-off budget. ownGoroutineOps are the streams, served on a goroutine
// of their own.
var (
	markedOps = map[uint8]bool{
		wireproto.TRegister: true, wireproto.TBoot: true, wireproto.TSync: true,
		wireproto.TScrubAll: true, wireproto.TResilverAll: true, wireproto.TWorkload: true,
		wireproto.TSetOnline: true, wireproto.TDropReplica: true, wireproto.TCrash: true, wireproto.TRestart: true,
		wireproto.TRot: true, wireproto.TSetFaults: true, wireproto.TGC: true, wireproto.TNetReset: true,
		wireproto.TTelemetry: true, wireproto.TTraceTree: true,
	}
	ownGoroutineOps = map[uint8]bool{wireproto.TWatch: true}
)

// TestEveryFrameTypeIsClassified walks the frame types: each one this
// build names is deliberately a query the reader serves unmarked
// (daemon.go's inlineOps), a request the reader serves under its mark and
// hands the socket on from (markedOps above), or a stream on its own
// goroutine (ownGoroutineOps above, which the read loop names) — exactly
// one of the three — so a new frame type cannot fall into a serving mode
// by default, and nothing that is not a frame type is in any set.
func TestEveryFrameTypeIsClassified(t *testing.T) {
	named := 0
	for i := 0; i < 256; i++ {
		typ := uint8(i)
		name := wireproto.TypeName(typ)
		if name == fmt.Sprintf("type%d", typ) {
			if inlineOps[typ] || markedOps[typ] || ownGoroutineOps[typ] {
				t.Errorf("frame type %d is classified but is not a frame type", typ)
			}
			continue
		}
		named++
		modes := 0
		for _, in := range []bool{inlineOps[typ], markedOps[typ], ownGoroutineOps[typ]} {
			if in {
				modes++
			}
		}
		switch modes {
		case 0:
			t.Errorf("frame type %s is not classified: add it to inlineOps in daemon.go, or to markedOps or ownGoroutineOps here", name)
		case 1:
		default:
			t.Errorf("frame type %s is in %d of inlineOps, markedOps and ownGoroutineOps", name, modes)
		}
	}
	if want := int(wireproto.TWorkload) - 1; named != want {
		t.Errorf("walked %d named frame types, want %d (TInfo..TWorkload less reserved type %d)", named, want, reservedType)
	}
}

// reservedType is the retired trace fetch's frame type: no build may
// reuse the number, and a daemon refuses it like any unknown type.
const reservedType = 18

// A frame of the reserved type is a bad request, and the connection that
// sent it goes on serving.
func TestReservedFrameTypeIsABadRequest(t *testing.T) {
	addr, _ := startServer(t, ctlplane.Options{Images: 1, Nodes: 1}, Config{})
	conn := rawDial(t, addr)
	if err := wireproto.WriteFrame(conn, request(t, reservedType, 1, nil)); err != nil {
		t.Fatal(err)
	}
	got, err := wireproto.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsError() || got.ReqID != 1 {
		t.Fatalf("type %d got reply #%d flags %#x, want an error reply to #1", reservedType, got.ReqID, got.Flags)
	}
	if code, msg, err := wireproto.DecodeError(got.Payload); err != nil || code != wireproto.CodeBadRequest {
		t.Fatalf("type %d refused with code %d %q (err %v), want CodeBadRequest", reservedType, code, msg, err)
	}
	if err := wireproto.WriteFrame(conn, request(t, wireproto.TInfo, 2, nil)); err != nil {
		t.Fatal(err)
	}
	if got, err := wireproto.ReadFrame(conn); err != nil || got.IsError() || got.ReqID != 2 || got.Type != wireproto.TInfo {
		t.Fatalf("connection stopped serving after the reserved type: %+v, %v", got, err)
	}
}

// A short query sent after a slow boot on the same connection is
// answered first: the boot runs on a worker and the reader goes on to
// the next frame.
func TestHealthOvertakesSlowBoot(t *testing.T) {
	addr, _ := startServer(t, ctlplane.Options{Images: 1, Nodes: 1, BootLatency: 150 * time.Millisecond}, Config{})
	c := dial(t, addr)
	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(context.Background(), info.Images[0], sessionT0); err != nil {
		t.Fatal(err)
	}
	conn := rawDial(t, addr)
	boot := request(t, wireproto.TBoot, 1, core.BootRequest{Image: info.Images[0], Node: info.ComputeNodes[0]})
	health := request(t, wireproto.THealth, 2, nil)
	if _, err := conn.Write(wireproto.AppendFrame(wireproto.AppendFrame(nil, boot), health)); err != nil {
		t.Fatal(err)
	}
	for i, want := range []wireproto.Frame{health, boot} {
		got, err := wireproto.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if got.ReqID != want.ReqID || got.Type != want.Type || got.IsError() {
			t.Fatalf("reply %d is %s #%d (error=%v), want %s #%d", i,
				wireproto.TypeName(got.Type), got.ReqID, got.IsError(), wireproto.TypeName(want.Type), want.ReqID)
		}
	}
}

// Short queries pipelined on one connection are served by the reader in
// arrival order, so their replies come back in request order, each under
// its own request ID and type.
func TestPipelinedShortQueriesKeepOrder(t *testing.T) {
	addr, _ := startServer(t, ctlplane.Options{Images: 2, Nodes: 2}, Config{})
	conn := rawDial(t, addr)
	types := []uint8{wireproto.TStats, wireproto.TNetRx, wireproto.THealth, wireproto.TInfo,
		wireproto.TPeers, wireproto.TStats, wireproto.THealth, wireproto.TNetRx}
	var wire []byte
	for i, typ := range types {
		wire = wireproto.AppendFrame(wire, request(t, typ, uint64(100+i), nil))
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	for i, typ := range types {
		got, err := wireproto.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if got.ReqID != uint64(100+i) || got.Type != typ || got.IsError() || got.Flags&wireproto.FlagResponse == 0 {
			t.Fatalf("reply %d is %s #%d flags %#x, want %s #%d", i,
				wireproto.TypeName(got.Type), got.ReqID, got.Flags, wireproto.TypeName(typ), 100+i)
		}
		// The body is the one this request's type answers with.
		switch typ {
		case wireproto.THealth:
			if health, err := ctlplane.DecodeHealthReply(got.Payload); err != nil || len(health) != 2 {
				t.Fatalf("reply %d: health body %q (err %v) does not describe 2 nodes", i, got.Payload, err)
			}
		case wireproto.TInfo:
			if info, err := ctlplane.DecodeInfoReply(got.Payload); err != nil || len(info.Images) != 2 {
				t.Fatalf("reply %d: info body %q (err %v) does not list 2 images", i, got.Payload, err)
			}
		}
	}
}

// panicSession answers Info and blows up in Health: a stub for what a
// bug inside an inline handler would do to the reader goroutine.
type panicSession struct{ ctlplane.Session }

func (panicSession) Info() (ctlplane.Info, error)       { return ctlplane.Info{Version: "stub"}, nil }
func (panicSession) Health() ([]core.NodeStatus, error) { panic("boom") }

// A panic inside an inline handler is recovered on the reader goroutine:
// the request gets an error frame and the connection keeps serving.
func TestInlineHandlerPanicIsAnErrorFrame(t *testing.T) {
	if !inlineOps[wireproto.THealth] || !inlineOps[wireproto.TInfo] {
		t.Fatal("Health and Info are expected to be inline ops")
	}
	srv := serveSession(t, panicSession{}, Config{})
	c := dial(t, srv.Addr().String())
	for i := 0; i < 3; i++ {
		if _, err := c.Health(); err == nil || !strings.Contains(err.Error(), "panic serving frame") {
			t.Fatalf("Health on a panicking session returned %v, want the panic as an error", err)
		}
		if info, err := c.Info(); err != nil || info.Version != "stub" {
			t.Fatalf("connection stopped serving after a handler panic: %+v, %v", info, err)
		}
	}
}

// panicWatchSession answers Info and blows up in Watch: a stub for what a
// bug inside a streaming handler would do to the connection's worker.
type panicWatchSession struct{ ctlplane.Session }

func (panicWatchSession) Info() (ctlplane.Info, error) { return ctlplane.Info{Version: "stub"}, nil }
func (panicWatchSession) Watch(context.Context, ctlplane.WatchArgs, func(ctlplane.WatchUpdate) error) error {
	panic("boom")
}

// A panic inside a session's Watch is recovered like one in any other
// handler: the stream ends with an error frame, its dispatch span is
// failed and annotated, and the daemon and the connection go on serving.
func TestWatchPanicIsAnErrorFrame(t *testing.T) {
	tel := obs.New(0)
	srv := serveSession(t, panicWatchSession{}, Config{Tel: tel})
	c := dial(t, srv.Addr().String())
	for i := 0; i < 3; i++ {
		err := c.Watch(context.Background(), ctlplane.WatchArgs{Count: 1}, func(ctlplane.WatchUpdate) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "panic serving frame") {
			t.Fatalf("Watch on a panicking session returned %v, want the panic as an error", err)
		}
		if info, err := c.Info(); err != nil || info.Version != "stub" {
			t.Fatalf("connection stopped serving after a watch panic: %+v, %v", info, err)
		}
	}
	var failed []*obs.TreeDump
	for _, d := range tel.Trees() {
		if d.Err != "" {
			failed = append(failed, d)
		}
	}
	if len(failed) != 3 {
		t.Fatalf("%d failed dispatch spans, want one per watch", len(failed))
	}
	for _, d := range failed {
		if d.Kind != obs.OpDispatch || d.Annots["op.watch"] != 1 || d.Annots["error"] != 1 ||
			!strings.Contains(d.Err, "boom") {
			t.Fatalf("watch dispatch span %s %q annotations %v, want a failed, error-annotated op.watch",
				d.Kind, d.Err, d.Annots)
		}
	}
}

// Boots pipelined on one connection run at once on the connection's
// workers, and the workers end with the connection: after it closes the
// daemon is back to the goroutines it had before it was opened.
func TestConnWorkersEndWithConnection(t *testing.T) {
	const boots, latency = 4, 100 * time.Millisecond
	addr, _ := startServer(t, ctlplane.Options{Images: 1, Nodes: boots, BootLatency: latency}, Config{})
	c := dial(t, addr)
	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(context.Background(), info.Images[0], sessionT0); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	conn := rawDial(t, addr)
	for round := 0; round < 2; round++ { // the second round runs on the first round's workers
		var wire []byte
		for i := 0; i < boots; i++ {
			req := core.BootRequest{Image: info.Images[0], Node: info.ComputeNodes[i]}
			wire = wireproto.AppendFrame(wire, request(t, wireproto.TBoot, uint64(round*boots+i+1), req))
		}
		start := time.Now()
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < boots; i++ {
			got, err := wireproto.ReadFrame(conn)
			if err != nil {
				t.Fatal(err)
			}
			if got.IsError() || got.Type != wireproto.TBoot {
				t.Fatalf("round %d reply %d: %s #%d error=%v", round, i, wireproto.TypeName(got.Type), got.ReqID, got.IsError())
			}
			if _, err := ctlplane.DecodeBootReport(got.Payload); err != nil {
				t.Fatal(err)
			}
		}
		if took := time.Since(start); took >= 2*latency {
			t.Fatalf("round %d: %d pipelined %v boots took %v: the workers serialized them", round, boots, latency, took)
		}
	}

	conn.Close()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 10s after the connection closed, %d before it opened", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// slowBootServer serves a deployment of nodes compute nodes whose boots
// each wait latency, with one image registered in process (so no
// registration has passed through a reader), and returns the server and
// the deployment's Info.
func slowBootServer(t *testing.T, nodes int, latency time.Duration) (*Server, ctlplane.Info) {
	t.Helper()
	local, err := ctlplane.NewLocal(ctlplane.Options{Images: 1, Nodes: nodes, BootLatency: latency})
	if err != nil {
		t.Fatal(err)
	}
	info, err := local.Info()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := local.Register(context.Background(), info.Images[0], sessionT0); err != nil {
		t.Fatal(err)
	}
	return serveSession(t, local, Config{}), info
}

// A boot that outlives the hand-off budget loses the socket: a Health
// written after it, in a separate write, is read by a new reader and
// answered while the boot is still running. A reader that served every
// request itself would read the Health only after the boot's reply.
func TestSlowRequestHandsOffTheSocket(t *testing.T) {
	const latency = 150 * time.Millisecond
	srv, info := slowBootServer(t, 1, latency)
	conn := rawDial(t, srv.Addr().String())
	start := time.Now()
	boot := request(t, wireproto.TBoot, 1, core.BootRequest{Image: info.Images[0], Node: info.ComputeNodes[0]})
	if err := wireproto.WriteFrame(conn, boot); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := wireproto.WriteFrame(conn, request(t, wireproto.THealth, 2, nil)); err != nil {
		t.Fatal(err)
	}
	var at [2]time.Duration
	for i, want := range []uint8{wireproto.THealth, wireproto.TBoot} {
		got, err := wireproto.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want || got.ReqID != uint64(2-i) || got.IsError() {
			t.Fatalf("reply %d is %s #%d (error=%v), want %s #%d", i,
				wireproto.TypeName(got.Type), got.ReqID, got.IsError(), wireproto.TypeName(want), 2-i)
		}
		at[i] = time.Since(start)
	}
	if at[1]-at[0] < latency/3 {
		t.Fatalf("Health answered at %v and the %v boot at %v: the Health waited for the boot", at[0], latency, at[1])
	}
	if n := srv.handOffs.Load(); n != 1 {
		t.Fatalf("%d hand-offs, want the boot's one", n)
	}
}

// A slow request with no frame behind it keeps the socket: a closed loop
// of boots that each outlive the budget runs on the connection's one
// reader, whose stack has grown to the boot path, and starts no reader.
func TestSlowRequestWithNothingBehindKeepsTheReader(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the monitor peeks at the socket's receive queue only on Linux")
	}
	const boots = 20
	srv, info := slowBootServer(t, 1, 3*handOffBudget)
	c := dial(t, srv.Addr().String())
	req := core.BootRequest{Image: info.Images[0], Node: info.ComputeNodes[0]}
	for i := 0; i < boots; i++ {
		if _, err := c.Boot(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	if n := srv.handOffs.Load(); n != 0 {
		t.Fatalf("%d boots of %v, one at a time, made %d hand-offs, want 0", boots, 3*handOffBudget, n)
	}
}

// waitGoroutines waits until at most want goroutines run, failing after 10 s.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after 10 s, want at most %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Boots that take exactly the hand-off budget end as the monitor looks,
// so the monitor's hand-off and the finishing reader race on the state
// word round after round. Whoever wins, every frame gets exactly one
// reply, the connection keeps serving, and once it closes every reader
// it had has ended.
func TestHandOffRaceStress(t *testing.T) {
	const rounds, boots = 200, 3
	srv, info := slowBootServer(t, boots, handOffBudget)
	conn := rawDial(t, srv.Addr().String())
	// The handshake put the monitor and this connection's reader in place.
	baseline := runtime.NumGoroutine()
	id := uint64(0)
	for round := 0; round < rounds; round++ {
		var wire []byte
		want := map[uint64]uint8{}
		for i := 0; i < boots; i++ {
			id++
			req := core.BootRequest{Image: info.Images[0], Node: info.ComputeNodes[i]}
			wire = wireproto.AppendFrame(wire, request(t, wireproto.TBoot, id, req))
			want[id] = wireproto.TBoot
			if i == 0 {
				id++
				wire = wireproto.AppendFrame(wire, request(t, wireproto.THealth, id, nil))
				want[id] = wireproto.THealth
			}
		}
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		for len(want) > 0 {
			got, err := wireproto.ReadFrame(conn)
			if err != nil {
				t.Fatalf("round %d: %v with %d replies outstanding", round, err, len(want))
			}
			typ, ok := want[got.ReqID]
			if !ok || got.Type != typ || got.IsError() {
				t.Fatalf("round %d: unexpected reply %s #%d (error=%v): a duplicate, or not a request of this round",
					round, wireproto.TypeName(got.Type), got.ReqID, got.IsError())
			}
			delete(want, got.ReqID)
		}
	}
	t.Logf("%d hand-offs over %d rounds", srv.handOffs.Load(), rounds)
	conn.Close()
	waitGoroutines(t, baseline-1) // less the closed connection's reader
}

// A closed loop of fast boots on one connection runs on its one reader:
// a boot that ends inside the budget starts no goroutine and wakes none,
// so the monitor hands nothing off and is woken at most when a pause
// longer than its look let it park. Hand-offs and wake sends are the only
// goroutine starts and channel sends the serving path has, and the bound
// is far below one per boot even under the race detector.
func TestFastBootsStayOnTheReader(t *testing.T) {
	const boots = 1000
	srv, info := slowBootServer(t, 1, 0)
	c := dial(t, srv.Addr().String())
	req := core.BootRequest{Image: info.Images[0], Node: info.ComputeNodes[0]}
	if _, err := c.Boot(context.Background(), req); err != nil { // wakes the monitor, fills the caches
		t.Fatal(err)
	}
	handOffs, wakes := srv.handOffs.Load(), srv.wakes.Load()
	for i := 0; i < boots; i++ {
		if rep, err := c.Boot(context.Background(), req); err != nil || !rep.Warm {
			t.Fatalf("boot %d: %+v, %v", i, rep, err)
		}
	}
	handOffs, wakes = srv.handOffs.Load()-handOffs, srv.wakes.Load()-wakes
	t.Logf("%d warm boots: %d hand-offs, %d monitor wakes", boots, handOffs, wakes)
	if limit := int64(boots / 50); handOffs > limit || wakes > limit {
		t.Fatalf("%d warm boots made %d hand-offs and %d monitor wakes, limit %d each", boots, handOffs, wakes, limit)
	}
}

// A client that drops its connection in the middle of a watch breaks the
// reply writer on the next send, which ends the watch; handleConn then
// unwinds — the graceful Shutdown below returns without having to cancel
// anything, long before the watch would have run out on its own.
func TestDroppedConnectionEndsWatch(t *testing.T) {
	local, err := ctlplane.NewLocal(ctlplane.Options{Images: 1, Nodes: 1, Traced: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := serveSession(t, local, Config{Tel: local.Squirrel().Telemetry()})
	conn := rawDial(t, srv.Addr().String())
	watch := request(t, wireproto.TWatch, 1, ctlplane.WatchArgs{Every: time.Millisecond, Count: 600_000}) // ten minutes of updates
	if err := wireproto.WriteFrame(conn, watch); err != nil {
		t.Fatal(err)
	}
	if f, err := wireproto.ReadFrame(conn); err != nil || !f.IsStream() {
		t.Fatalf("first watch frame: %+v, %v", f, err)
	}
	conn.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("a watch streaming to a dropped connection outlived it: Shutdown returned %v", err)
	}
}

// countingConn counts the writes that reach the connection.
type countingConn struct {
	net.Conn
	writes int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.Conn.Write(p)
}

// After one failed write the reply writer is broken: the failing send
// and every later one return the error, and nothing more is written.
func TestReplyWriterBreaksOnce(t *testing.T) {
	near, far := net.Pipe()
	far.Close()
	defer near.Close()
	cc := &countingConn{Conn: near}
	w := &replyWriter{conn: cc, fw: wireproto.NewWriter(cc)}
	reply := wireproto.Frame{Type: wireproto.THealth, Flags: wireproto.FlagResponse, ReqID: 1, Payload: []byte("{}")}
	first := w.send(reply)
	if first == nil {
		t.Fatal("send on a closed pipe succeeded")
	}
	for i := 0; i < 3; i++ {
		if err := w.send(reply); !errors.Is(err, first) {
			t.Fatalf("send %d after the break returned %v, want %v", i, err, first)
		}
	}
	if cc.writes != 1 {
		t.Fatalf("%d writes reached the connection, want only the one that failed", cc.writes)
	}
}

// A steady stream of replies allocates nothing: the frame is encoded into
// the connection's buffer and written from there.
func TestReplySendAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		peer, err := ln.Accept()
		if err != nil {
			return
		}
		defer peer.Close()
		_, _ = io.Copy(io.Discard, peer)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := &replyWriter{conn: conn, fw: wireproto.NewWriter(conn)}
	reply := wireproto.Frame{Type: wireproto.THealth, Flags: wireproto.FlagResponse, ReqID: 7, Payload: make([]byte, 200)}
	if err := w.send(reply); err != nil { // grows the buffer once
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := w.send(reply); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a 200-byte reply allocates %.1f times per send, want 0", allocs)
	}
}
