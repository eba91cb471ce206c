package daemon

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/fault"
	"repro/internal/wireclient"
	"repro/internal/wireproto"
	"repro/internal/workload"
	"repro/internal/zvol"
)

// startServer brings up a daemon over a fresh deployment built from opts
// on a loopback port and returns its address. A traced deployment gets
// the daemon's dispatch spans in its own telemetry — the configuration
// squirreld -traced runs. The server is drained when the test ends.
func startServer(t *testing.T, opts ctlplane.Options, cfg Config) (string, *Server) {
	t.Helper()
	local, err := ctlplane.NewLocal(opts)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Traced {
		cfg.Tel = local.Squirrel().Telemetry()
	}
	srv := serveSession(t, local, cfg)
	return srv.Addr().String(), srv
}

func dial(t *testing.T, addr string) *wireclient.Client {
	t.Helper()
	c, err := wireclient.Dial(wireclient.Options{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

var sessionT0 = time.Date(2014, 6, 23, 9, 0, 0, 0, time.UTC)

// scenarioResult is everything the scripted scenario observes through a
// Session — the material the equivalence test diffs across transports.
type scenarioResult struct {
	Info      ctlplane.Info
	Registers []core.RegisterReport
	Sync      core.SyncReport
	Boots     []core.BootReport
	Rx        int64
	Stats     core.DeploymentStats
	Health    []core.NodeStatus
	GC        int

	Crashed  []core.NodeStatus // Health while a node is down
	Recovery core.RecoveryReport
	Rotted   int
	Scrub    map[string]zvol.ScrubReport
	Scrubbed []core.NodeStatus // Health after the scrub found the rot
}

// runScenario drives one seeded end-to-end script — registrations with
// a node offline mid-wave, catch-up sync, rounds (the deployment's own
// clock, which no Session method advances), a dropped replica forcing a
// peer-served cold boot, a boot wave, stats/health, GC, then a crash and
// restart and a rotted node scrubbed, with health read in the middle of
// each — identically against any Session.
func runScenario(t *testing.T, sess ctlplane.Session, rounds func()) scenarioResult {
	t.Helper()
	ctx := context.Background()
	info, err := sess.Info()
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Images) == 0 || len(info.ComputeNodes) < 2 {
		t.Fatalf("degenerate deployment: %+v", info)
	}
	res := scenarioResult{Info: info}
	offline := info.ComputeNodes[1]
	for i, id := range info.Images {
		if i == len(info.Images)/2 {
			if err := sess.SetOnline(offline, false); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := sess.Register(ctx, id, sessionT0.Add(time.Duration(i)*time.Minute))
		if err != nil {
			t.Fatalf("register %s: %v", id, err)
		}
		res.Registers = append(res.Registers, rep)
	}
	if err := sess.SetOnline(offline, true); err != nil {
		t.Fatal(err)
	}
	if res.Sync, err = sess.SyncNode(ctx, offline); err != nil {
		t.Fatal(err)
	}
	rounds()
	if err := sess.DropReplica(info.ComputeNodes[0], info.Images[0]); err != nil {
		t.Fatal(err)
	}
	if err := sess.ResetNetCounters(); err != nil {
		t.Fatal(err)
	}
	img := 0
	for _, n := range info.ComputeNodes {
		for v := 0; v < 2; v++ {
			id := info.Images[img%len(info.Images)]
			img++
			rep, err := sess.Boot(ctx, core.BootRequest{Image: id, Node: n, Verify: true})
			if err != nil {
				t.Fatalf("boot %s on %s: %v", id, n, err)
			}
			res.Boots = append(res.Boots, rep)
		}
	}
	if res.Rx, err = sess.ComputeRx(); err != nil {
		t.Fatal(err)
	}
	if res.Stats, err = sess.Stats(); err != nil {
		t.Fatal(err)
	}
	if res.Health, err = sess.Health(); err != nil {
		t.Fatal(err)
	}
	if res.GC, err = sess.GarbageCollect(sessionT0.Add(30 * 24 * time.Hour)); err != nil {
		t.Fatal(err)
	}

	crashed, rotted := info.ComputeNodes[2], info.ComputeNodes[3]
	if err := sess.CrashNode(crashed, sessionT0.Add(31*24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if res.Crashed, err = sess.Health(); err != nil {
		t.Fatal(err)
	}
	if res.Recovery, err = sess.RestartNode(crashed, sessionT0.Add(31*24*time.Hour+time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := sess.SetFaults(fault.Plan{Seed: 99, Rot: 0.4}); err != nil {
		t.Fatal(err)
	}
	if res.Rotted, err = sess.InjectRot(rotted); err != nil {
		t.Fatal(err)
	}
	if res.Scrub, err = sess.ScrubAll(ctx, sessionT0.Add(32*24*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if res.Scrubbed, err = sess.Health(); err != nil {
		t.Fatal(err)
	}
	return res
}

// nodeStatus is node's row of a health table.
func nodeStatus(t *testing.T, health []core.NodeStatus, node string) core.NodeStatus {
	t.Helper()
	for _, st := range health {
		if st.NodeID == node {
			return st
		}
	}
	t.Fatalf("no health row for %s in %+v", node, health)
	return core.NodeStatus{}
}

// gossipRounds runs two gossip rounds on local's deployment when it runs
// the gossip index, so Stats carries a round count; central mode has no
// rounds.
func gossipRounds(t *testing.T, local *ctlplane.Local, index string) func() {
	return func() {
		if index != "gossip" {
			return
		}
		if _, err := local.Squirrel().GossipTicks(2); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDaemonEquivalence is the acceptance proof: the same seeded
// scenario produces identical reports whether the Session is the
// in-process Local or a wireclient talking to a live daemon — info,
// every RegisterReport and BootReport field, plus sync, stats (peer
// loads and gossip gauges included), health, NIC accounting, recovery
// and scrub, survives the wire byte-for-byte. It runs under both index
// modes; the gossip mode gives Health its view gauges and Stats its
// round count. Both sides run the same gossip rounds at the same point
// of the scenario (squirreld's ticker is in cmd/squirreld and not
// running here), so both sides see the same views.
func TestDaemonEquivalence(t *testing.T) {
	for _, index := range []string{"", "gossip"} {
		t.Run("index="+cmp.Or(index, "central"), func(t *testing.T) {
			opts := ctlplane.Options{Images: 4, Nodes: 4, Peers: true, Index: index}

			local, err := ctlplane.NewLocal(opts)
			if err != nil {
				t.Fatal(err)
			}
			want := runScenario(t, local, gossipRounds(t, local, index))

			served, err := ctlplane.NewLocal(opts)
			if err != nil {
				t.Fatal(err)
			}
			srv := serveSession(t, served, Config{})
			got := runScenario(t, dial(t, srv.Addr().String()), gossipRounds(t, served, index))

			w, g := reflect.ValueOf(want), reflect.ValueOf(got)
			for i := 0; i < w.NumField(); i++ {
				if !reflect.DeepEqual(w.Field(i).Interface(), g.Field(i).Interface()) {
					t.Errorf("%s diverges:\nin-process: %+v\ndaemon:     %+v", w.Type().Field(i).Name, w.Field(i), g.Field(i))
				}
			}

			// The scenario reached the states whose fields only show in
			// those states.
			nodes := want.Info.ComputeNodes
			if st := nodeStatus(t, want.Crashed, nodes[2]); st.State != core.StateDown || st.DownSince.IsZero() {
				t.Errorf("crashed node reads %+v, want down with a DownSince", st)
			}
			st := nodeStatus(t, want.Scrubbed, nodes[3])
			if st.State != core.StateResilvering || st.CorruptBlocks == 0 || st.LastScrub.IsZero() || want.Rotted == 0 {
				t.Errorf("rotted node reads %+v after %d blocks rotted, want resilvering with corrupt blocks and a LastScrub", st, want.Rotted)
			}
			if leases := nodeStatus(t, want.Health, nodes[0]).ViewLeases; (index == "gossip") != (leases > 0) {
				t.Errorf("index %q: node carries %d view leases", index, leases)
			}
			if len(want.Stats.PeerLoads) == 0 {
				t.Errorf("stats carry no peer loads after a peer-served cold boot: %+v", want.Stats)
			}
			if round := want.Stats.GossipRound; (index == "gossip") != (round > 0) {
				t.Errorf("index %q: stats read gossip round %d", index, round)
			}
		})
	}
}

// TestWireSentinels proves the errors.Is family — and therefore
// squirrelctl's exit codes 2–5 — survives the wire.
func TestWireSentinels(t *testing.T) {
	addr, _ := startServer(t, ctlplane.Options{Images: 2, Nodes: 2}, Config{})
	c := dial(t, addr)
	ctx := context.Background()
	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	im, node := info.Images[0], info.ComputeNodes[0]
	if _, err := c.Register(ctx, im, sessionT0); err != nil {
		t.Fatal(err)
	}

	if _, err := c.Boot(ctx, core.BootRequest{Image: "nope", Node: node}); !errors.Is(err, core.ErrUnknownImage) {
		t.Errorf("unknown image over the wire: got %v", err)
	}
	if _, err := c.Boot(ctx, core.BootRequest{Image: im, Node: "nope"}); !errors.Is(err, core.ErrUnknownNode) {
		t.Errorf("unknown node over the wire: got %v", err)
	}
	if _, err := c.Register(ctx, im, sessionT0); !errors.Is(err, core.ErrRegistered) {
		t.Errorf("duplicate register over the wire: got %v", err)
	}
	if err := c.SetOnline(node, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Boot(ctx, core.BootRequest{Image: im, Node: node}); !errors.Is(err, core.ErrNodeOffline) {
		t.Errorf("offline node over the wire: got %v", err)
	}
	// The message crosses too: operators see the server-side detail.
	_, err = c.Boot(ctx, core.BootRequest{Image: im, Node: node})
	if err == nil || !strings.Contains(err.Error(), node) {
		t.Errorf("error message lost detail: %v", err)
	}
}

// TestPipelinedConcurrentCalls hammers one connection from many
// goroutines: request IDs must route every response to its caller
// (run under -race this is also the client/daemon concurrency proof).
func TestPipelinedConcurrentCalls(t *testing.T) {
	opts := ctlplane.Options{Images: 2, Nodes: 4}
	addr, _ := startServer(t, opts, Config{})
	c := dial(t, addr)
	ctx := context.Background()
	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range info.Images {
		if _, err := c.Register(ctx, id, sessionT0.Add(time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			node := info.ComputeNodes[i%len(info.ComputeNodes)]
			im := info.Images[i%len(info.Images)]
			for j := 0; j < 4; j++ {
				rep, err := c.Boot(ctx, core.BootRequest{Image: im, Node: node, Verify: true})
				if err != nil {
					errs <- err
					return
				}
				if rep.ImageID != im || rep.NodeID != node {
					errs <- fmt.Errorf("response routed to wrong caller: got %s/%s want %s/%s",
						rep.ImageID, rep.NodeID, im, node)
					return
				}
				if _, err := c.Health(); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestGracefulShutdownDrainsBoots is the SIGTERM-semantics proof:
// Shutdown with boots in flight completes those boots (their responses
// arrive intact), rejects new connections, and Serve exits cleanly.
func TestGracefulShutdownDrainsBoots(t *testing.T) {
	opts := ctlplane.Options{Images: 2, Nodes: 4, BootLatency: 150 * time.Millisecond}
	local, err := ctlplane.NewLocal(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(local, Config{Addr: "127.0.0.1:0"})
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	addr := srv.Addr().String()

	c, err := wireclient.Dial(wireclient.Options{Addr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range info.Images {
		if _, err := c.Register(ctx, id, sessionT0.Add(time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}

	// Fire a wave of slow boots, then shut down mid-flight.
	const boots = 8
	reports := make(chan core.BootReport, boots)
	bootErrs := make(chan error, boots)
	var wg sync.WaitGroup
	for i := 0; i < boots; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := c.Boot(ctx, core.BootRequest{
				Image: info.Images[i%len(info.Images)],
				Node:  info.ComputeNodes[i%len(info.ComputeNodes)],
			})
			if err != nil {
				bootErrs <- err
				return
			}
			reports <- rep
		}(i)
	}
	time.Sleep(30 * time.Millisecond) // let the wave reach the daemon

	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		t.Fatalf("graceful shutdown did not drain: %v", err)
	}
	wg.Wait()
	close(reports)
	close(bootErrs)
	for err := range bootErrs {
		t.Errorf("in-flight boot failed across shutdown: %v", err)
	}
	n := 0
	for rep := range reports {
		n++
		if rep.ImageID == "" || rep.NodeID == "" {
			t.Errorf("drained boot returned an empty report: %+v", rep)
		}
	}
	if n != boots {
		t.Errorf("only %d/%d in-flight boots completed across shutdown", n, boots)
	}

	// New connections must be refused now.
	if _, err := wireclient.Dial(wireclient.Options{Addr: addr, Attempts: 2, Backoff: 10 * time.Millisecond}); !errors.Is(err, wireclient.ErrConnect) {
		t.Errorf("dial after shutdown: got %v, want ErrConnect", err)
	}
	if err := <-served; err != nil {
		t.Errorf("Serve returned %v after graceful shutdown", err)
	}
}

// TestHandshakeVersionMismatch speaks an older and a newer protocol
// version at the daemon raw: each reply must be HelloVersionMismatch
// with a message naming both versions.
func TestHandshakeVersionMismatch(t *testing.T) {
	addr, _ := startServer(t, ctlplane.Options{Images: 1, Nodes: 1}, Config{})
	for name, clientVer := range map[string]uint16{"client-older": wireproto.Version - 1, "client-newer": wireproto.Version + 41} {
		t.Run(name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			hello := make([]byte, 0, 8)
			hello = append(hello, wireproto.Magic...)
			hello = binary.LittleEndian.AppendUint16(hello, clientVer)
			hello = binary.LittleEndian.AppendUint16(hello, 0)
			if _, err := conn.Write(hello); err != nil {
				t.Fatal(err)
			}
			ver, status, msg, err := wireproto.ReadHelloReply(conn)
			if err != nil {
				t.Fatal(err)
			}
			if status != wireproto.HelloVersionMismatch || ver != wireproto.Version {
				t.Fatalf("reply v%d status %d, want v%d HelloVersionMismatch", ver, status, wireproto.Version)
			}
			for _, want := range []string{
				fmt.Sprintf("v%d", wireproto.Version),
				fmt.Sprintf("v%d", clientVer),
			} {
				if !strings.Contains(msg, want) {
					t.Errorf("mismatch message %q does not name %s", msg, want)
				}
			}
		})
	}
}

// TestConnLimit exhausts MaxConns and expects HelloBusy handshake
// rejections surfaced as ErrHandshake after the retry budget.
func TestConnLimit(t *testing.T) {
	addr, _ := startServer(t, ctlplane.Options{Images: 1, Nodes: 1}, Config{MaxConns: 2})
	c1 := dial(t, addr)
	c2 := dial(t, addr)
	if _, err := c1.Info(); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Info(); err != nil {
		t.Fatal(err)
	}
	_, err := wireclient.Dial(wireclient.Options{Addr: addr, Attempts: 2, Backoff: 10 * time.Millisecond})
	if err == nil {
		t.Fatal("third connection admitted past MaxConns=2")
	}
	if !errors.Is(err, wireclient.ErrConnect) && !errors.Is(err, wireclient.ErrHandshake) {
		t.Errorf("over-limit dial: got %v", err)
	}
	// Freeing a slot readmits.
	c1.Close()
	c3, err := wireclient.Dial(wireclient.Options{Addr: addr, Attempts: 10, Backoff: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("dial after slot freed: %v", err)
	}
	defer c3.Close()
	if _, err := c3.Info(); err != nil {
		t.Error(err)
	}
}

// TestMalformedFrameClosesConn sends garbage mid-stream: the daemon
// must drop the connection (the framing is out of sync) without taking
// the process down, and a fresh connection must still be served.
func TestMalformedFrameClosesConn(t *testing.T) {
	addr, _ := startServer(t, ctlplane.Options{Images: 1, Nodes: 1}, Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wireproto.WriteHello(conn); err != nil {
		t.Fatal(err)
	}
	if _, status, _, err := wireproto.ReadHelloReply(conn); err != nil || status != wireproto.HelloOK {
		t.Fatalf("handshake: status %d err %v", status, err)
	}
	if _, err := conn.Write([]byte("this is not a frame, not even close............")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	for {
		if _, err := conn.Read(buf); err != nil {
			break // connection dropped, as it must be
		}
	}
	// The daemon survived and serves new connections.
	c := dial(t, addr)
	if _, err := c.Info(); err != nil {
		t.Errorf("daemon unusable after malformed frame: %v", err)
	}
}

// TestWorkloadOverWire drives the workload op through the daemon and
// checks the summary equals what the identical in-process deployment
// produces: the scenario runs server-side, only cfg and the fixed-size
// summary cross the wire, and logical-clock determinism makes the two
// transports byte-comparable.
func TestWorkloadOverWire(t *testing.T) {
	opts := ctlplane.Options{Images: 8, Nodes: 16, Peers: true}
	cfg := workload.Config{Arrivals: "flash", Boots: 1600, Seed: 7}

	addr, _ := startServer(t, opts, Config{})
	c := dial(t, addr)
	wire, err := c.Workload(context.Background(), cfg)
	if err != nil {
		t.Fatalf("workload over wire: %v", err)
	}

	local, err := ctlplane.NewLocal(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	direct, err := local.Workload(context.Background(), cfg)
	if err != nil {
		t.Fatalf("workload in-process: %v", err)
	}

	wire.ElapsedSec, wire.HeapMB = 0, 0
	direct.ElapsedSec, direct.HeapMB = 0, 0
	if !reflect.DeepEqual(wire, direct) {
		t.Fatalf("wire and in-process workload summaries differ:\n  wire:   %+v\n  direct: %+v", wire, direct)
	}
	if wire.Index != "central" || wire.Boots != 1600 || wire.Admitted+wire.Shed != wire.Boots {
		t.Fatalf("summary sanity: %+v", wire)
	}
	if wire.Arrivals != "flash" || wire.Cold == 0 {
		t.Fatalf("flash scenario did not exercise cold boots: %+v", wire)
	}
}
