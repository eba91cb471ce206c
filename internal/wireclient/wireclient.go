// Package wireclient is the client side of Squirrel's control plane: a
// ctlplane.Session implementation that speaks the wireproto framing to
// a live squirreld over TCP.
//
// The client pipelines: every call is assigned a request ID, written
// to the shared connection, and parked until the matching response
// frame arrives, so concurrent callers share one connection without
// head-of-line blocking on the daemon side (the daemon hands every
// request that can take long to one of the connection's workers).
// Streaming replies (the watch op) ride the same connection: FlagStream
// frames keep their exchange registered until the final non-stream
// frame closes it.
//
// Who reads the socket: a waiting call, not a goroutine of the client's
// own. The connection has one read token, a one-slot channel full at
// dial. A waiting call selects on its reply channel, the token, its
// context and done; the call that takes the token reads frames until
// its own arrives, routes every other one to its parked caller by
// request ID, and puts the token back. With one call in flight, which
// is the common case, the reply wakes its caller directly, and an idle
// Client runs no goroutine at all. The one goroutine the client starts
// reads the rest of an abandoned watch: the daemon stops a stream only
// at its end or on a failed write, so its frames must keep being read.
//
// Channel ownership: a parked call's channel is written only by the
// token's holder, under mu, and is never closed. A holder never waits
// on a consumer: a stream element that finds its channel full joins the
// stream's queue, which its consumer empties after the channel.
// Connection death is announced on one stop channel, done, closed
// exactly once by fail, and every waiter selects on it.
//
// Cancellation is exact: a holder whose context can expire waits for a
// frame's first byte before reading it, and only that wait is cut short
// (by a past read deadline), so a call that gives up never leaves a
// frame half read for the next holder.
//
// Dial retries refused connections and busy handshakes with exponential
// backoff — the daemon may still be starting; a protocol version
// mismatch (or a peer that is not a squirreld) fails immediately, after
// exactly one handshake.
//
// When Options.Obs is set the client records its own span tree: one
// ctl.session root per connection, ctl.dial children for every TCP
// attempt, and an rpc.call child per request. Each traced request frame
// carries the trace context (session trace ID + rpc span ID), which the
// daemon stamps on its dispatch spans — TraceSlowest later fetches those
// dispatch trees and grafts them back under the rpc.call spans that
// issued them, rendering one tree that spans both processes.
package wireclient

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/wireproto"
	"repro/internal/workload"
	"repro/internal/zvol"
)

// Connection-level sentinels; squirrelctl maps both onto its
// connection-failure exit code.
var (
	// ErrConnect is wrapped by dial failures (daemon down, wrong
	// address, network refusals) after the retry budget is spent.
	ErrConnect = errors.New("wireclient: cannot connect to squirreld")
	// ErrHandshake is wrapped when a connection is established but the
	// protocol handshake is rejected (version mismatch, busy daemon that
	// stayed busy, or a peer that is not a squirreld at all).
	ErrHandshake = errors.New("wireclient: handshake with squirreld failed")
	// ErrClosed is returned by calls whose connection died before the
	// response arrived.
	ErrClosed = errors.New("wireclient: connection closed")
)

// Options shape one Dial.
type Options struct {
	// Addr is the daemon's TCP address (host:port).
	Addr string
	// Attempts is the dial retry budget (default 5); only transient
	// failures (refused connections, busy handshakes) are retried.
	Attempts int
	// Backoff is the initial retry delay, doubling per attempt
	// (default 100ms).
	Backoff time.Duration
	// Obs, when set, receives the client-side span tree: a ctl.session
	// root for the connection, ctl.dial attempts and rpc.call exchanges
	// as its children. Required for TraceSlowest.
	Obs *obs.Telemetry
}

// dialTimeout bounds each connection attempt and its handshake.
const dialTimeout = 2 * time.Second

func (o Options) withDefaults() Options {
	if o.Attempts <= 0 {
		o.Attempts = 5
	}
	if o.Backoff <= 0 {
		o.Backoff = 100 * time.Millisecond
	}
	return o
}

// Client is a Session served by a remote squirreld.
type Client struct {
	opts Options
	conn net.Conn

	tel     *obs.Telemetry
	session *obs.Span // ctl.session root; finished by Close

	wmu sync.Mutex        // serializes frame writes
	fw  *wireproto.Writer // one reused buffer, one conn.Write per request

	// reader is the read token (see the package comment): full at dial,
	// and whoever holds it is the only reader of br.
	reader chan struct{}
	br     *bufio.Reader

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan wireproto.Frame
	// queued holds, oldest first, a stream's elements that arrived while
	// its channel was full; the channel's own frames are older still.
	queued map[uint64][]wireproto.Frame
	err    error         // terminal connection error; set once, with done
	done   chan struct{} // closed by fail when the connection dies
}

var _ ctlplane.Session = (*Client)(nil)

// Dial connects and handshakes with the daemon at opts.Addr.
func Dial(opts Options) (*Client, error) {
	opts = opts.withDefaults()
	session := opts.Obs.Tracer().StartOp(obs.OpSession, "", "")
	var lastErr error
	backoff := opts.Backoff
	for attempt := 0; attempt < opts.Attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		dsp := session.Child(obs.OpDial, "", "")
		dsp.Annotate("attempt", int64(attempt)+1)
		dsp.Annotate("proto", int64(wireproto.Version))
		conn, err := net.DialTimeout("tcp", opts.Addr, dialTimeout)
		if err != nil {
			dsp.Fail(err)
			dsp.Finish()
			lastErr = err
			continue
		}
		c, err := handshake(conn, opts)
		if err == nil {
			dsp.Finish()
			c.tel = opts.Obs
			c.session = session
			return c, nil
		}
		_ = conn.Close()
		dsp.Fail(err)
		dsp.Finish()
		if errors.Is(err, ErrHandshake) && !errors.Is(err, errBusy) {
			// Neither a version mismatch nor a non-squirreld peer heals
			// on retry.
			session.Fail(err)
			session.Finish()
			return nil, err
		}
		lastErr = err
	}
	err := fmt.Errorf("%w at %s after %d attempts: %v", ErrConnect, opts.Addr, opts.Attempts, lastErr)
	session.Fail(err)
	session.Finish()
	return nil, err
}

// errBusy marks a HelloBusy rejection — transient, retried by Dial.
var errBusy = errors.New("wireclient: daemon busy")

// handshake runs the hello exchange and builds the Client.
func handshake(conn net.Conn, opts Options) (*Client, error) {
	_ = conn.SetDeadline(time.Now().Add(dialTimeout))
	if err := wireproto.WriteHello(conn); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	ver, status, msg, err := wireproto.ReadHelloReply(conn)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrHandshake, err)
	}
	switch status {
	case wireproto.HelloOK:
		if ver != wireproto.Version {
			// A server that accepts but names another version would be
			// framing a protocol this client does not speak.
			return nil, fmt.Errorf("%w: server accepted with protocol v%d, client speaks v%d",
				ErrHandshake, ver, wireproto.Version)
		}
	case wireproto.HelloVersionMismatch:
		if msg == "" {
			msg = fmt.Sprintf("protocol version mismatch: server v%d, client v%d", ver, wireproto.Version)
		}
		return nil, fmt.Errorf("%w: %s", ErrHandshake, msg)
	case wireproto.HelloBusy:
		return nil, fmt.Errorf("%w: %w: %s", ErrHandshake, errBusy, msg)
	default:
		return nil, fmt.Errorf("%w: unknown handshake status %d", ErrHandshake, status)
	}
	_ = conn.SetDeadline(time.Time{})
	c := &Client{
		opts:    opts,
		conn:    conn,
		fw:      wireproto.NewWriter(conn),
		reader:  make(chan struct{}, 1),
		br:      bufio.NewReader(conn),
		pending: make(map[uint64]chan wireproto.Frame),
		queued:  make(map[uint64][]wireproto.Frame),
		done:    make(chan struct{}),
	}
	c.reader <- struct{}{}
	return c, nil
}

// fail marks the connection dead and unparks every pending call. Only
// the first call's error is kept.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
		close(c.done)
	}
	c.mu.Unlock()
}

// Close implements Session. It also finishes the ctl.session span, which
// lands the client-side trace tree in Options.Obs's ring.
func (c *Client) Close() error {
	err := c.conn.Close()
	c.fail(ErrClosed)
	c.session.Finish()
	return err
}

// register parks a fresh request ID. bufcap sizes the response channel:
// 1 for unary calls, larger for streams so their elements rarely need
// the queue.
func (c *Client) register(bufcap int) (uint64, chan wireproto.Frame, error) {
	ch := make(chan wireproto.Frame, bufcap)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.err; err != nil {
		return 0, nil, err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	return id, ch, nil
}

// unregister forgets a parked request whose caller is leaving; a late
// response to it finds no pending entry and is discarded.
func (c *Client) unregister(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	delete(c.queued, id)
	c.mu.Unlock()
}

// writeRequest writes one request frame; a write error kills the
// connection and unregisters the request.
func (c *Client) writeRequest(f wireproto.Frame) error {
	c.wmu.Lock()
	err := c.fw.WriteFrame(f)
	c.wmu.Unlock()
	if err != nil {
		c.unregister(f.ReqID)
		err = fmt.Errorf("%w: write: %v", ErrClosed, err)
		c.fail(err)
		return err
	}
	return nil
}

// rpcSpan opens the client-side span for one exchange. Nil (free) when
// tracing is off, or for the trace-fetch op itself — TTraceTree
// dispatches must not appear inside the very trace they retrieve.
func (c *Client) rpcSpan(typ uint8) *obs.Span {
	if c.tel == nil || typ == wireproto.TTraceTree {
		return nil
	}
	sp := c.session.Child(obs.OpRPC, "", "")
	sp.Annotate("op."+wireproto.TypeName(typ), 1)
	return sp
}

// stamp attaches the wire trace context to a request frame when the
// exchange is traced.
func (c *Client) stamp(f *wireproto.Frame, sp *obs.Span) {
	if sp == nil {
		return
	}
	f.Flags |= wireproto.FlagTrace
	f.TraceID = c.session.SpanID()
	f.SpanID = sp.SpanID()
}

// call runs one request/response exchange with JSON bodies: marshal
// args, run the exchange, unmarshal the response into out. A nil out
// discards the response body. Only the rare, unmeasured ops take it
// (registration, scrub, telemetry and the like); the boot and the
// monitoring poll's replies are binary and go through rpc (Boot, poll).
func (c *Client) call(ctx context.Context, typ uint8, args any, out any) error {
	var payload []byte
	if args != nil {
		var err error
		if payload, err = json.Marshal(args); err != nil {
			return fmt.Errorf("wireclient: encode request: %w", err)
		}
	}
	return c.rpc(ctx, typ, payload, func(body []byte) error {
		if out == nil || len(body) == 0 {
			return nil
		}
		return json.Unmarshal(body, out)
	})
}

// rpc runs one exchange under its rpc.call span: write the request frame,
// park until the matching response or ctx expiry, and hand the response
// body to decode.
func (c *Client) rpc(ctx context.Context, typ uint8, payload []byte, decode func([]byte) error) error {
	sp := c.rpcSpan(typ)
	body, err := c.exchange(ctx, sp, typ, payload)
	if err == nil {
		if err = decode(body); err != nil {
			err = fmt.Errorf("wireclient: decode response: %w", err)
		}
	}
	sp.Fail(err)
	sp.Finish()
	return err
}

// exchange writes one request frame and returns the response's body, or
// the error an error frame carries.
func (c *Client) exchange(ctx context.Context, sp *obs.Span, typ uint8, payload []byte) ([]byte, error) {
	id, ch, err := c.register(1)
	if err != nil {
		return nil, err
	}
	f := wireproto.Frame{Type: typ, ReqID: id, Payload: payload}
	c.stamp(&f, sp)
	if err := c.writeRequest(f); err != nil {
		return nil, err
	}

	resp, err := c.recv(ctx, id, ch)
	if err != nil {
		c.unregister(id)
		return nil, err
	}
	if resp.IsError() {
		return nil, decodeErrorFrame(resp)
	}
	return resp.Payload, nil
}

// recv waits for call id's next frame: another call holding the read
// token routes it to ch, or this call takes the token and reads the
// socket itself. It gives up when ctx expires or the connection dies. A
// frame routed before the connection died is still delivered: a daemon
// that replies and then closes (a drain) has answered.
func (c *Client) recv(ctx context.Context, id uint64, ch chan wireproto.Frame) (wireproto.Frame, error) {
	if f, ok := c.take(id, ch); ok {
		return f, nil
	}
	select {
	case f := <-ch:
		return f, nil
	case <-c.reader:
		return c.lead(ctx, id, ch)
	case <-ctx.Done():
		return wireproto.Frame{}, ctx.Err()
	case <-c.done:
		if f, ok := c.take(id, ch); ok {
			return f, nil
		}
		return wireproto.Frame{}, c.err // set before done closed, never again
	}
}

// lead runs while call id holds the read token, and puts it back on
// return. It reads frames until id's own arrives, routing every other
// one to its caller. Only the token's holder routes, and it never
// routes to itself, so once take finds nothing, nothing is queued for
// id ahead of the frames this loop reads.
func (c *Client) lead(ctx context.Context, id uint64, ch chan wireproto.Frame) (wireproto.Frame, error) {
	defer func() { c.reader <- struct{}{} }()
	if f, ok := c.take(id, ch); ok { // routed by an earlier holder
		return f, nil
	}
	for {
		if err := ctx.Err(); err != nil {
			return wireproto.Frame{}, err
		}
		f, err := c.readFrame(ctx)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, os.ErrDeadlineExceeded) {
				return wireproto.Frame{}, ctxErr // nothing of the next frame was consumed
			}
			c.fail(fmt.Errorf("%w: %v", ErrClosed, err))
			return wireproto.Frame{}, c.err
		}
		if c.route(f, id) {
			return f, nil
		}
	}
}

// route hands a frame the holder of call id has read to the call it
// answers, and reports whether that call is id itself. A FlagStream
// frame leaves its call registered — more elements follow — and any
// other frame unregisters it; a frame whose caller gave up is
// discarded. It never blocks: an element for a stream whose channel is
// full, or whose queue is not yet empty, joins the queue.
func (c *Client) route(f wireproto.Frame, id uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := c.pending[f.ReqID]
	if ch != nil && !f.IsStream() {
		delete(c.pending, f.ReqID)
	}
	if f.ReqID == id || ch == nil {
		return f.ReqID == id
	}
	q := c.queued[f.ReqID]
	if len(q) == 0 {
		select {
		case ch <- f:
			return false
		default:
		}
	}
	c.queued[f.ReqID] = append(q, f)
	return false
}

// take returns call id's oldest routed frame, if there is one: the
// channel's frames first, then the queue's.
func (c *Client) take(id uint64, ch chan wireproto.Frame) (wireproto.Frame, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case f := <-ch:
		return f, true
	default:
	}
	q := c.queued[id]
	if len(q) == 0 {
		return wireproto.Frame{}, false
	}
	f := q[0]
	if len(q) == 1 {
		delete(c.queued, id)
	} else {
		q[0] = wireproto.Frame{}
		c.queued[id] = q[1:]
	}
	return f, true
}

// readFrame reads the holder's next frame. Under a ctx that can expire
// it first waits for the frame's first byte, so an expiry can cut only
// that wait short; a ctx that never expires pays nothing.
func (c *Client) readFrame(ctx context.Context) (wireproto.Frame, error) {
	if ctx.Done() != nil && c.br.Buffered() == 0 {
		if err := c.awaitByte(ctx); err != nil {
			return wireproto.Frame{}, err
		}
	}
	return wireproto.ReadFrame(c.br)
}

// awaitByte peeks one byte; ctx's expiry sets a past read deadline that
// ends the peek with os.ErrDeadlineExceeded. If the expiry callback
// started, the deadline is cleared once it is done, so no later read
// inherits it.
func (c *Client) awaitByte(ctx context.Context) error {
	fired := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		// Fails only on a closed conn, which the peek then reports.
		_ = c.conn.SetReadDeadline(time.Unix(1, 0))
		close(fired)
	})
	_, err := c.br.Peek(1)
	if !stop() {
		<-fired
		_ = c.conn.SetReadDeadline(time.Time{}) // as above: a closed conn fails the next read
	}
	return err
}

// decodeErrorFrame rebuilds the error an error frame carries.
func decodeErrorFrame(f wireproto.Frame) error {
	code, msg, err := wireproto.DecodeError(f.Payload)
	if err != nil {
		return fmt.Errorf("wireclient: undecodable error frame: %w", err)
	}
	return ctlplane.ErrFromCode(code, msg)
}

// bg is the context for Session methods that have no caller context.
func bg() context.Context { return context.Background() }

// poll runs one bodyless request whose reply is a fixed binary body
// (ctlplane/healthbody.go, ctlbody.go), not JSON, and decodes it.
func poll[T any](c *Client, typ uint8, decode func([]byte) (T, error)) (T, error) {
	var out T
	err := c.rpc(bg(), typ, nil, func(body []byte) (err error) {
		out, err = decode(body)
		return err
	})
	return out, err
}

// Info implements Session.
func (c *Client) Info() (ctlplane.Info, error) {
	return poll(c, wireproto.TInfo, ctlplane.DecodeInfoReply)
}

// Register implements Session.
func (c *Client) Register(ctx context.Context, imageID string, at time.Time) (core.RegisterReport, error) {
	var out core.RegisterReport
	err := c.call(ctx, wireproto.TRegister, ctlplane.RegisterArgs{Image: imageID, At: at}, &out)
	return out, err
}

// Boot implements Session. Its bodies are the fixed binary ones
// (ctlplane/bootbody.go), not JSON.
func (c *Client) Boot(ctx context.Context, req core.BootRequest) (core.BootReport, error) {
	payload, err := ctlplane.AppendBootRequest(nil, req)
	if err != nil {
		return core.BootReport{}, fmt.Errorf("wireclient: encode request: %w", err)
	}
	var out core.BootReport
	err = c.rpc(ctx, wireproto.TBoot, payload, func(body []byte) (err error) {
		out, err = ctlplane.DecodeBootReport(body)
		return err
	})
	return out, err
}

// SyncNode implements Session.
func (c *Client) SyncNode(ctx context.Context, nodeID string) (core.SyncReport, error) {
	var out core.SyncReport
	err := c.call(ctx, wireproto.TSync, ctlplane.NodeArgs{Node: nodeID}, &out)
	return out, err
}

// SetOnline implements Session.
func (c *Client) SetOnline(nodeID string, up bool) error {
	return c.call(bg(), wireproto.TSetOnline, ctlplane.OnlineArgs{Node: nodeID, Up: up}, nil)
}

// DropReplica implements Session.
func (c *Client) DropReplica(nodeID, imageID string) error {
	return c.call(bg(), wireproto.TDropReplica, ctlplane.DropArgs{Node: nodeID, Image: imageID}, nil)
}

// CrashNode implements Session.
func (c *Client) CrashNode(nodeID string, at time.Time) error {
	return c.call(bg(), wireproto.TCrash, ctlplane.NodeAtArgs{Node: nodeID, At: at}, nil)
}

// RestartNode implements Session.
func (c *Client) RestartNode(nodeID string, at time.Time) (core.RecoveryReport, error) {
	var out core.RecoveryReport
	err := c.call(bg(), wireproto.TRestart, ctlplane.NodeAtArgs{Node: nodeID, At: at}, &out)
	return out, err
}

// InjectRot implements Session.
func (c *Client) InjectRot(nodeID string) (int, error) {
	var out ctlplane.RotReply
	err := c.call(bg(), wireproto.TRot, ctlplane.NodeArgs{Node: nodeID}, &out)
	return out.Blocks, err
}

// SetFaults implements Session.
func (c *Client) SetFaults(plan fault.Plan) error {
	return c.call(bg(), wireproto.TSetFaults, plan, nil)
}

// ScrubAll implements Session.
func (c *Client) ScrubAll(ctx context.Context, at time.Time) (map[string]zvol.ScrubReport, error) {
	var out map[string]zvol.ScrubReport
	err := c.call(ctx, wireproto.TScrubAll, ctlplane.AtArgs{At: at}, &out)
	return out, err
}

// ResilverAll implements Session.
func (c *Client) ResilverAll(ctx context.Context, at time.Time) ([]core.ResilverReport, error) {
	var out []core.ResilverReport
	err := c.call(ctx, wireproto.TResilverAll, ctlplane.AtArgs{At: at}, &out)
	return out, err
}

// GarbageCollect implements Session.
func (c *Client) GarbageCollect(at time.Time) (int, error) {
	var out ctlplane.CountReply
	err := c.call(bg(), wireproto.TGC, ctlplane.AtArgs{At: at}, &out)
	return out.N, err
}

// Stats implements Session.
func (c *Client) Stats() (core.DeploymentStats, error) {
	return poll(c, wireproto.TStats, ctlplane.DecodeStatsReply)
}

// Health implements Session.
func (c *Client) Health() ([]core.NodeStatus, error) {
	return poll(c, wireproto.THealth, ctlplane.DecodeHealthReply)
}

// PeerCounters implements Session.
func (c *Client) PeerCounters() (string, error) {
	var out ctlplane.PeersReply
	err := c.call(bg(), wireproto.TPeers, nil, &out)
	return out.Counters, err
}

// Telemetry implements Session.
func (c *Client) Telemetry() (ctlplane.TelemetryDump, error) {
	var out ctlplane.TelemetryDump
	err := c.call(bg(), wireproto.TTelemetry, nil, &out)
	return out, err
}

// Workload implements Session: the scenario runs on the daemon, next to
// the deployment; only the args and the fixed-size summary cross the
// wire.
func (c *Client) Workload(ctx context.Context, cfg workload.Config) (workload.Summary, error) {
	var out workload.Summary
	err := c.call(ctx, wireproto.TWorkload, cfg, &out)
	return out, err
}

// ResetNetCounters implements Session.
func (c *Client) ResetNetCounters() error {
	return c.call(bg(), wireproto.TNetReset, nil, nil)
}

// ComputeRx implements Session.
func (c *Client) ComputeRx() (int64, error) {
	return poll(c, wireproto.TNetRx, ctlplane.DecodeNetRxReply)
}

// Watch implements Session: it opens a TWatch stream and invokes fn for
// every WatchUpdate element until the daemon's final frame, fn errors,
// or ctx is cancelled. On early exit a goroutine reads the rest of the
// stream and discards it.
func (c *Client) Watch(ctx context.Context, args ctlplane.WatchArgs, fn func(ctlplane.WatchUpdate) error) error {
	if args.Count < 1 {
		return fmt.Errorf("wireclient: watch needs Count >= 1")
	}
	sp := c.rpcSpan(wireproto.TWatch)
	err := c.watchStream(ctx, sp, args, fn)
	sp.Fail(err)
	sp.Finish()
	return err
}

func (c *Client) watchStream(ctx context.Context, sp *obs.Span, args ctlplane.WatchArgs, fn func(ctlplane.WatchUpdate) error) error {
	payload, err := json.Marshal(args)
	if err != nil {
		return fmt.Errorf("wireclient: encode request: %w", err)
	}
	id, ch, err := c.register(16)
	if err != nil {
		return err
	}
	f := wireproto.Frame{Type: wireproto.TWatch, ReqID: id, Payload: payload}
	c.stamp(&f, sp)
	if err := c.writeRequest(f); err != nil {
		return err
	}
	// abandon reads the rest of the stream in the background, taking the
	// read token like any call: the daemon stops a watch only at its end
	// or on a failed write, so frames nobody reads would fill the socket
	// until the daemon's write times out and it breaks the connection.
	abandon := func() {
		go func() {
			for {
				f, err := c.recv(context.Background(), id, ch)
				if err != nil || !f.IsStream() {
					return
				}
			}
		}()
	}
	for {
		f, err := c.recv(ctx, id, ch)
		if err != nil {
			abandon() // ends at once if the connection is what died
			return err
		}
		if f.IsError() {
			return decodeErrorFrame(f)
		}
		if !f.IsStream() {
			// Final frame: the stream completed.
			return nil
		}
		var u ctlplane.WatchUpdate
		if err := json.Unmarshal(f.Payload, &u); err != nil {
			abandon()
			return fmt.Errorf("wireclient: decode watch update: %w", err)
		}
		sp.Annotate("updates", 1)
		if err := fn(u); err != nil {
			abandon()
			return err
		}
	}
}

// TraceSlowest implements Session: it renders one trace tree spanning
// both processes for the slowest (or first failed) operation of the
// given kind in this session — the client-side ctl.session root with its
// dial attempts, the rpc.call span that issued the operation, and,
// grafted under it by span ID, the daemon's rpc.dispatch tree with the
// core operation's own span lanes. Without Options.Obs there is no
// client half to graft onto, and it fails with "client-side tracing
// disabled".
func (c *Client) TraceSlowest(kind string) (string, error) {
	if c.tel == nil || c.session == nil {
		return "", fmt.Errorf("wireclient: client-side tracing disabled (set Options.Obs)")
	}
	var reply ctlplane.TraceTreeReply
	err := c.call(bg(), wireproto.TTraceTree, ctlplane.TraceTreeArgs{TraceID: c.session.SpanID()}, &reply)
	if err != nil {
		return "", err
	}
	dump := obs.DumpTree(c.session)
	for _, t := range reply.Trees {
		dump.Graft(t)
	}
	// Prune to the interesting branch: the rpc.call whose grafted
	// dispatch tree holds the span Slowest picks. Dial attempts stay —
	// retry history is part of the session's story.
	var dials, rpcs []*obs.TreeDump
	for _, ch := range dump.Children {
		switch ch.Kind {
		case obs.OpDial:
			dials = append(dials, ch)
		case obs.OpRPC:
			rpcs = append(rpcs, ch)
		}
	}
	bestRPC, _ := obs.Slowest(rpcs, kind)
	if bestRPC == nil {
		return "", fmt.Errorf("wireclient: no completed %q operation in this session's trace", kind)
	}
	dump.Children = append(dials, bestRPC)
	return obs.RenderDump(dump), nil
}
