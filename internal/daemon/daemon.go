// Package daemon is the server side of Squirrel's control plane: it
// owns a deployment (a ctlplane.Session, normally ctlplane.Local) and
// serves it to wireclient connections over the wireproto framing.
//
// cmd/squirreld is a thin flag-parsing wrapper around Server; the
// logic lives here so the loopback end-to-end, equivalence, and
// graceful-shutdown tests can drive a real listening server inside
// `go test -race`.
//
// Concurrency model: one goroutine at a time reads a connection's frames,
// and it serves what it reads itself, between two reads: a warm boot
// costs about a microsecond, and handing it to another goroutine would
// cost more than the boot. A short read-only query (a frame type in
// inlineOps) is served and answered, and that is all. Any other request
// except a watch may block — a -boot-latency wait, healing, an admission
// queue, a registration — so the reader marks the connection's state word
// with the request's start before serving it and clears the mark by CAS
// after writing the reply. The server's one monitor goroutine wakes every
// handOffBudget while some reader is serving and parks otherwise; a
// request it finds marked for longer than the budget, with a frame
// waiting behind it, loses the socket: the monitor swaps the mark for
// handedOff and starts a new reader on the connection, and the old
// goroutine, whose CAS then fails, writes its reply and exits. So a slow
// request delays the frames behind it by about the budget, clients
// pipeline by request ID and get replies out of order, and a fast request
// wakes no goroutine, arms no timer and sends on no channel. A watch streams on a goroutine of its own. Whoever
// produced a reply writes it, under the connection's replyWriter mutex;
// there is no writer goroutine, and the last goroutine done with a
// connection — its reader, a request an earlier reader still serves, a
// watch — closes it. Graceful shutdown (SIGTERM in squirreld, or
// Server.Shutdown) stops accepting connections and reading new frames but
// lets every in-flight request — boots included — run to completion and
// write its response before the connections close; only when the
// Shutdown context expires are request contexts cancelled and
// connections torn down.
package daemon

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/version"
	"repro/internal/wireproto"
	"repro/internal/workload"
)

// Config shapes one Server.
type Config struct {
	// Addr is the TCP listen address (host:port; port 0 picks one).
	Addr string
	// MaxConns bounds concurrently served connections; connections over
	// the limit are rejected with a HelloBusy handshake reply. 0 means
	// DefaultMaxConns.
	MaxConns int
	// Logf, when set, receives one line per lifecycle event (listen,
	// serve, drain). nil is silent — tests want quiet servers.
	Logf func(format string, args ...any)
	// Tel, when set, is the deployment's telemetry: every request frame
	// opens an rpc.dispatch span (continuing the client's trace when the
	// frame carries FlagTrace), and the TTraceTree op serves dispatch
	// trees from its ring. nil disables daemon-side dispatch spans.
	Tel *obs.Telemetry
}

// DefaultMaxConns is MaxConns when unset; DefaultHandshakeTimeout bounds
// how long a fresh connection may take to complete the hello exchange.
const (
	DefaultMaxConns         = 64
	DefaultHandshakeTimeout = 10 * time.Second
	writeTimeout            = 30 * time.Second
)

// handOffBudget is how long a reader may serve one request before its
// connection gets a new reader, and how often the monitor looks while
// any reader is serving. It is a fixed cost of the design, not a knob:
// long against a warm boot (≈ 1 µs of work) and its round trip (≈ 20 µs),
// short against anything that waits.
const handOffBudget = time.Millisecond

// errBadRequest marks undecodable bodies and unknown frame types; it
// travels as CodeBadRequest.
var errBadRequest = errors.New("daemon: bad request")

// Server serves one deployment over TCP.
type Server struct {
	cfg  Config
	sess ctlplane.Session

	// ctx is the base context of every request; cancel fires only on
	// forced (deadline-expired) shutdown, so a graceful drain lets
	// in-flight boots finish.
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*conn]struct{}
	draining atomic.Bool
	connWG   sync.WaitGroup

	// The hand-off monitor. epoch is the origin of the readers' serving
	// stamps. parked is set while the monitor waits on wake for a reader
	// to start serving; the reader that clears it sends the one wake.
	epoch  time.Time
	parked atomic.Bool
	wake   chan struct{}
	// handOffs and wakes count monitor hand-offs and wake sends, for the
	// tests that pin what a fast request costs.
	handOffs, wakes atomic.Int64
}

// conn is one served connection.
type conn struct {
	nc  net.Conn
	br  *bufio.Reader // owned by the connection's current reader
	out *replyWriter
	// state is the current reader's serving mark: start<<2 | buffered<<1
	// | 1 while it serves a request that may block, start in ns since the
	// server's epoch and buffered set when the reader's buffer already
	// held bytes of a later frame; even once that request is answered;
	// handedOff after the monitor gave the socket to a new reader. The
	// reader stores the mark and clears it by CAS, and the monitor hands
	// off by CAS, so exactly one of the two wins a request that ends as
	// the budget runs out.
	state atomic.Int64
	// refs counts the goroutines still using the connection: its reader,
	// requests former readers still serve, watches. Dropping it to zero
	// closes the connection.
	refs atomic.Int32
	seen int64 // the state the monitor saw last; only the monitor touches it
}

// handedOff is the state word of a connection whose reader was handed
// the socket by the monitor and has not yet served a request.
const handedOff = -2

// New builds a Server over sess. Call Listen then Serve.
func New(sess ctlplane.Session, cfg Config) *Server {
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = DefaultMaxConns
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{cfg: cfg, sess: sess, ctx: ctx, cancel: cancel, conns: make(map[*conn]struct{}),
		epoch: time.Now(), wake: make(chan struct{}, 1)}
}

// Listen binds the configured address. Split from Serve so callers can
// learn the bound address (port 0) before any client dials.
func (s *Server) Listen() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("daemon: listen %s: %w", s.cfg.Addr, err)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.logf("squirreld %s listening on %s (proto v%d, max %d conns)",
		version.Build, ln.Addr(), wireproto.Version, s.cfg.MaxConns)
	return nil
}

// Addr is the bound listen address (nil before Listen).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts and serves connections until the listener closes.
// After a graceful Shutdown it returns nil once every connection has
// drained; any other accept failure is returned as-is.
func (s *Server) Serve() error {
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln == nil {
		return fmt.Errorf("daemon: Serve before Listen")
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		s.monitor(stop)
		close(stopped)
	}()
	defer func() {
		close(stop)
		<-stopped
	}()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				s.connWG.Wait()
				return nil
			}
			return fmt.Errorf("daemon: accept: %w", err)
		}
		busy := false
		c := &conn{nc: nc}
		c.refs.Store(1) // the first reader's
		s.mu.Lock()
		switch {
		case s.draining.Load():
			s.mu.Unlock()
			_ = nc.Close()
			continue
		case len(s.conns) >= s.cfg.MaxConns:
			busy = true
		default:
			s.conns[c] = struct{}{}
			s.connWG.Add(1)
		}
		s.mu.Unlock()
		if busy {
			go s.rejectBusy(nc)
			continue
		}
		go s.handleConn(c)
	}
}

// Shutdown drains the server: no new connections, no new requests, but
// every request already in flight completes and its response is
// flushed. If ctx expires first, in-flight request contexts are
// cancelled and connections are closed; Shutdown still waits for the
// connection handlers to unwind before returning ctx's error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining.Swap(true)
	ln := s.ln
	if ln != nil {
		_ = ln.Close()
	}
	for c := range s.conns {
		// Nudge the read loops: the pending ReadFrame fails with a
		// deadline error and the loop stops pulling new requests.
		_ = c.nc.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	if !already {
		s.logf("draining: waiting for in-flight requests")
	}
	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel()
		s.mu.Lock()
		for c := range s.conns {
			_ = c.nc.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// rejectBusy answers the handshake of an over-limit connection with
// HelloBusy and closes it.
func (s *Server) rejectBusy(c net.Conn) {
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(DefaultHandshakeTimeout))
	if _, err := wireproto.ReadHello(c); err != nil {
		return
	}
	_ = wireproto.WriteHelloReply(c, wireproto.HelloBusy,
		fmt.Sprintf("squirreld at connection limit (%d); retry", s.cfg.MaxConns))
}

// handleConn runs one connection: handshake, then the first reader.
func (s *Server) handleConn(c *conn) {
	if !s.handshake(c) {
		s.drop(c)
		return
	}
	c.out = &replyWriter{conn: c.nc, fw: wireproto.NewWriter(c.nc)}
	s.readLoop(c)
}

// handshake runs the hello exchange on a fresh connection.
func (s *Server) handshake(c *conn) bool {
	c.br = bufio.NewReader(c.nc)
	_ = c.nc.SetReadDeadline(time.Now().Add(DefaultHandshakeTimeout))
	ver, err := wireproto.ReadHello(c.br)
	if err != nil {
		return false
	}
	if ver != wireproto.Version {
		_ = wireproto.WriteHelloReply(c.nc, wireproto.HelloVersionMismatch,
			fmt.Sprintf("protocol version mismatch: server %s speaks v%d, client sent v%d",
				version.Build, wireproto.Version, ver))
		return false
	}
	if err := wireproto.WriteHelloReply(c.nc, wireproto.HelloOK, ""); err != nil {
		return false
	}
	_ = c.nc.SetReadDeadline(time.Time{})
	return true
}

// readLoop is a connection's reader: it reads frames and serves them
// until the stream ends, the drain nudge fails its read, or the monitor
// hands the socket to a new reader while this one serves.
func (s *Server) readLoop(c *conn) {
	defer s.drop(c)
	for {
		f, err := wireproto.ReadFrame(c.br)
		if err != nil {
			// EOF, the shutdown nudge, or a framing violation — in every
			// case the stream is done taking requests. A framing error is
			// unrecoverable by construction (the byte stream is out of
			// sync), so closing is the only safe answer.
			return
		}
		switch {
		case s.draining.Load():
			c.out.send(errorFrame(f, ctlplane.ErrDraining))
		case inlineOps[f.Type]:
			c.out.send(s.dispatch(f))
		case f.Type == wireproto.TWatch: // a stream of replies
			c.refs.Add(1)
			go func() {
				defer s.drop(c)
				s.serveWatch(f, c.out)
			}()
		default:
			if !s.serveMarked(c, f) {
				return // the connection has a new reader
			}
		}
	}
}

// serveMarked serves a request that may block and writes its reply, under
// the connection's serving mark. It reports whether this goroutine is
// still the connection's reader: false when the monitor handed the socket
// on meanwhile. The fast path is two atomic writes and a load.
func (s *Server) serveMarked(c *conn, f wireproto.Frame) bool {
	mark := int64(time.Since(s.epoch))<<2 | 1
	if c.br.Buffered() > 0 {
		mark |= 2
	}
	c.state.Store(mark)
	if s.parked.Load() {
		s.wakeMonitor()
	}
	c.out.send(s.dispatch(f))
	return c.state.CompareAndSwap(mark, mark&^1)
}

// wakeMonitor wakes the parked monitor; of the readers that find it
// parked, the one that clears parked sends the wake.
func (s *Server) wakeMonitor() {
	if s.parked.CompareAndSwap(true, false) {
		s.wakes.Add(1)
		s.wake <- struct{}{}
	}
}

// monitor hands the socket of a connection whose reader has served one
// request for longer than handOffBudget, with a frame waiting behind it,
// to a new reader. Nothing waiting, nothing is delayed: a closed loop of
// slow requests (a registration stream) keeps its one reader, whose stack
// has grown to the request path, and a frame that arrives later is seen
// at the next look. The monitor looks every budget while some
// connection's state word moved since its last look, and otherwise parks
// until a reader marks a request.
func (s *Server) monitor(stop <-chan struct{}) {
	var conns []*conn
	tick := time.NewTimer(handOffBudget)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
		case <-stop:
			return
		}
		conns = s.snapshot(conns[:0])
		now := int64(time.Since(s.epoch))
		active := false
		for _, c := range conns {
			v := c.state.Load()
			if v != c.seen {
				c.seen, active = v, true
			}
			if v&1 == 1 {
				active = true
				if now-(v>>2) >= int64(handOffBudget) && (v&2 != 0 || framesWaiting(c.nc)) {
					s.handOff(c, v)
				}
			}
		}
		if !active {
			// Park. A reader marks its request before it loads parked, and
			// the monitor sets parked before it looks again, so either the
			// reader sees parked and wakes the monitor, or the look below
			// finds the mark — and then exactly one of the two clears
			// parked, so the wake is sent only when the monitor waits.
			s.parked.Store(true)
			conns = s.snapshot(conns[:0])
			if !anyMarked(conns) || !s.parked.CompareAndSwap(true, false) {
				select {
				case <-s.wake:
				case <-stop:
					return
				}
			}
		}
		clear(conns) // drop closed connections between looks
		tick.Reset(handOffBudget)
	}
}

// snapshot appends the served connections to buf.
func (s *Server) snapshot(buf []*conn) []*conn {
	s.mu.Lock()
	for c := range s.conns {
		buf = append(buf, c)
	}
	s.mu.Unlock()
	return buf
}

func anyMarked(conns []*conn) bool {
	for _, c := range conns {
		if c.state.Load()&1 == 1 {
			return true
		}
	}
	return false
}

// handOff gives c's socket to a new reader if its reader is still serving
// the request it marked with mark. The new reader's reference is taken
// first, so the connection cannot close between the swap and its start.
func (s *Server) handOff(c *conn, mark int64) {
	for {
		r := c.refs.Load()
		if r == 0 {
			return // closed: nothing left to read
		}
		if c.refs.CompareAndSwap(r, r+1) {
			break
		}
	}
	if !c.state.CompareAndSwap(mark, handedOff) {
		s.drop(c) // the request finished first
		return
	}
	s.handOffs.Add(1)
	go s.readLoop(c)
}

// drop releases one goroutine's use of c; the last closes it.
func (s *Server) drop(c *conn) {
	if c.refs.Add(-1) > 0 {
		return
	}
	_ = c.nc.Close()
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.connWG.Done()
}

// replyWriter puts reply frames on one connection. Whoever produced a
// reply — the reader, a former reader, a watch stream — writes it
// under mu: a write deadline, one encode into the connection's buffer, one
// conn.Write. After a failed write the connection is broken and sends
// return that error at once; only a stream needs the result (to stop
// producing) — the read loop finds a dead peer on its next read.
type replyWriter struct {
	mu     sync.Mutex
	conn   net.Conn
	fw     *wireproto.Writer
	broken error // first write error; nil while the connection is good
}

func (w *replyWriter) send(f wireproto.Frame) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken == nil {
		_ = w.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		w.broken = w.fw.WriteFrame(f)
	}
	return w.broken
}

// dispatchSpan opens the daemon-side span for one request frame. A
// frame carrying FlagTrace continues the client's trace (the dispatch
// tree records the client's trace ID and issuing span, so TTraceTree
// can ship it back for grafting); an untraced frame opens an ordinary
// root. The TTraceTree op itself is never spanned: its
// dispatches must not appear inside the traces they retrieve.
func (s *Server) dispatchSpan(f wireproto.Frame) *obs.Span {
	tr := s.cfg.Tel.Tracer()
	if tr == nil || f.Type == wireproto.TTraceTree {
		return nil
	}
	var sp *obs.Span
	if f.Flags&wireproto.FlagTrace != 0 {
		sp = tr.StartRemoteOp(obs.OpDispatch, "", "", f.TraceID, f.SpanID)
	} else {
		sp = tr.StartOp(obs.OpDispatch, "", "")
	}
	sp.Annotate("op."+wireproto.TypeName(f.Type), 1)
	return sp
}

// dispatch decodes one request, runs it against the session, and
// encodes the response (or error) frame. A handler panic is converted
// into an error frame rather than killing the daemon.
func (s *Server) dispatch(f wireproto.Frame) (resp wireproto.Frame) {
	sp := s.dispatchSpan(f)
	defer func() {
		if r := recover(); r != nil {
			resp = errorFrame(f, fmt.Errorf("daemon: panic serving frame type %d: %v", f.Type, r))
		}
		if resp.IsError() {
			sp.Annotate("error", 1)
		}
		// Finished before the response frame is written, so by the time
		// the client sees the reply the dispatch tree is in the telemetry
		// ring and a TraceSlowest fetch will find it.
		sp.Finish()
	}()
	ctx := s.ctx
	if sp != nil {
		ctx = obs.ContextWithSpan(ctx, sp)
	}
	result, err := s.handle(ctx, f.Type, f.Payload)
	if err != nil {
		sp.Fail(err)
		return errorFrame(f, err)
	}
	var payload []byte
	switch r := result.(type) {
	case nil:
	case encoded:
		payload = r
	default:
		payload, err = json.Marshal(result)
		if err != nil {
			return errorFrame(f, fmt.Errorf("daemon: encode response: %w", err))
		}
	}
	return wireproto.Frame{Type: f.Type, Flags: wireproto.FlagResponse, ReqID: f.ReqID, Payload: payload}
}

// serveWatch runs one TWatch exchange: it delegates to the session's
// Watch (so local and wire watches emit identical update schemas) and
// ships every update as a FlagStream frame, then terminates the stream
// with a final plain response — or an error frame if the watch failed
// before completing.
func (s *Server) serveWatch(f wireproto.Frame, out *replyWriter) {
	sp := s.dispatchSpan(f)
	err := s.watch(f, sp, out)
	if err != nil {
		sp.Annotate("error", 1)
	}
	sp.Fail(err)
	sp.Finish()
	if err != nil {
		out.send(errorFrame(f, err))
		return
	}
	out.send(wireproto.Frame{Type: wireproto.TWatch, Flags: wireproto.FlagResponse, ReqID: f.ReqID})
}

// watch streams f's updates. A panic in the session's Watch is returned
// as an error, as dispatch does for every other handler, so it ends the
// stream with an error frame instead of the daemon.
func (s *Server) watch(f wireproto.Frame, sp *obs.Span, out *replyWriter) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("daemon: panic serving frame type %d: %v", f.Type, r)
		}
	}()
	args, err := decode[ctlplane.WatchArgs](f.Payload)
	if err != nil {
		return err
	}
	return s.sess.Watch(obs.ContextWithSpan(s.ctx, sp), args, func(u ctlplane.WatchUpdate) error {
		payload, err := json.Marshal(u)
		if err != nil {
			return fmt.Errorf("daemon: encode watch update: %w", err)
		}
		sp.Annotate("updates", 1)
		// A failed send ends the watch: nobody is left to stream to.
		return out.send(wireproto.Frame{
			Type:    wireproto.TWatch,
			Flags:   wireproto.FlagResponse | wireproto.FlagStream,
			ReqID:   f.ReqID,
			Payload: payload,
		})
	})
}

// errorFrame wraps err as the error response to frame f, mapping the
// sentinel family onto wire codes so clients rebuild errors.Is
// identity.
func errorFrame(f wireproto.Frame, err error) wireproto.Frame {
	code := ctlplane.CodeFor(err)
	if errors.Is(err, errBadRequest) {
		code = wireproto.CodeBadRequest
	}
	return wireproto.Frame{
		Type:    f.Type,
		Flags:   wireproto.FlagResponse | wireproto.FlagError,
		ReqID:   f.ReqID,
		Payload: wireproto.EncodeError(code, err.Error()),
	}
}

// decode unmarshals a request body; an empty body decodes to the zero
// args so bodyless frames stay cheap.
func decode[T any](body []byte) (T, error) {
	var v T
	if len(body) == 0 {
		return v, nil
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return v, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	return v, nil
}

// decodeBoot decodes a TBoot request body, the one request body that is
// not JSON (ctlplane/bootbody.go).
func decodeBoot(body []byte) (core.BootRequest, error) {
	a, err := ctlplane.DecodeBootRequest(body)
	if err != nil {
		return a, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	return a, nil
}

// encoded is a response body handle has already encoded; dispatch sends
// it as-is instead of marshalling it to JSON.
type encoded []byte

// encodedReply is the handle result for a binary body's encoder output.
func encodedReply(body []byte, err error) (any, error) {
	if err != nil {
		return nil, fmt.Errorf("daemon: encode response: %w", err)
	}
	return encoded(body), nil
}

// inlineOps is the set of frame types the connection's reader serves
// without a serving mark: ops whose Session method takes no context,
// mutates nothing and answers in microseconds at any deployment size, so
// they can never hold the reader past the budget. Every other type but
// TWatch can run long — it takes a context, mutates, or walks the
// telemetry registry or the span ring — and is served under the mark, so
// the monitor can hand the socket on (DESIGN §12); TWatch streams on a
// goroutine of its own. TestEveryFrameTypeIsClassified makes a new frame
// type choose.
var inlineOps = [256]bool{
	wireproto.TInfo: true, wireproto.THealth: true, wireproto.TStats: true,
	wireproto.TNetRx: true, wireproto.TPeers: true,
}

// handle maps one frame type onto the session call it names.
func (s *Server) handle(ctx context.Context, t uint8, body []byte) (any, error) {
	switch t {
	case wireproto.TInfo:
		info, err := s.sess.Info()
		if err != nil {
			return nil, err
		}
		return encodedReply(ctlplane.AppendInfoReply(nil, info))
	case wireproto.TRegister:
		a, err := decode[ctlplane.RegisterArgs](body)
		if err != nil {
			return nil, err
		}
		return s.sess.Register(ctx, a.Image, a.At)
	case wireproto.TBoot:
		a, err := decodeBoot(body)
		if err != nil {
			return nil, err
		}
		rep, err := s.sess.Boot(ctx, a)
		if err != nil {
			return nil, err
		}
		return encodedReply(ctlplane.AppendBootReport(nil, rep))
	case wireproto.TSync:
		a, err := decode[ctlplane.NodeArgs](body)
		if err != nil {
			return nil, err
		}
		return s.sess.SyncNode(ctx, a.Node)
	case wireproto.THealth:
		st, err := s.sess.Health()
		if err != nil {
			return nil, err
		}
		return encodedReply(ctlplane.AppendHealthReply(nil, st))
	case wireproto.TTelemetry:
		return s.sess.Telemetry()
	case wireproto.TPeers:
		ctr, err := s.sess.PeerCounters()
		if err != nil {
			return nil, err
		}
		return ctlplane.PeersReply{Counters: ctr}, nil
	case wireproto.TStats:
		st, err := s.sess.Stats()
		if err != nil {
			return nil, err
		}
		return encodedReply(ctlplane.AppendStatsReply(nil, st))
	case wireproto.TSetOnline:
		a, err := decode[ctlplane.OnlineArgs](body)
		if err != nil {
			return nil, err
		}
		return nil, s.sess.SetOnline(a.Node, a.Up)
	case wireproto.TDropReplica:
		a, err := decode[ctlplane.DropArgs](body)
		if err != nil {
			return nil, err
		}
		return nil, s.sess.DropReplica(a.Node, a.Image)
	case wireproto.TCrash:
		a, err := decode[ctlplane.NodeAtArgs](body)
		if err != nil {
			return nil, err
		}
		return nil, s.sess.CrashNode(a.Node, a.At)
	case wireproto.TRestart:
		a, err := decode[ctlplane.NodeAtArgs](body)
		if err != nil {
			return nil, err
		}
		return s.sess.RestartNode(a.Node, a.At)
	case wireproto.TRot:
		a, err := decode[ctlplane.NodeArgs](body)
		if err != nil {
			return nil, err
		}
		n, err := s.sess.InjectRot(a.Node)
		if err != nil {
			return nil, err
		}
		return ctlplane.RotReply{Blocks: n}, nil
	case wireproto.TSetFaults:
		a, err := decode[fault.Plan](body)
		if err != nil {
			return nil, err
		}
		return nil, s.sess.SetFaults(a)
	case wireproto.TScrubAll:
		a, err := decode[ctlplane.AtArgs](body)
		if err != nil {
			return nil, err
		}
		return s.sess.ScrubAll(ctx, a.At)
	case wireproto.TResilverAll:
		a, err := decode[ctlplane.AtArgs](body)
		if err != nil {
			return nil, err
		}
		return s.sess.ResilverAll(ctx, a.At)
	case wireproto.TGC:
		a, err := decode[ctlplane.AtArgs](body)
		if err != nil {
			return nil, err
		}
		n, err := s.sess.GarbageCollect(a.At)
		if err != nil {
			return nil, err
		}
		return ctlplane.CountReply{N: n}, nil
	case wireproto.TTraceTree:
		a, err := decode[ctlplane.TraceTreeArgs](body)
		if err != nil {
			return nil, err
		}
		if s.cfg.Tel == nil {
			return nil, fmt.Errorf("daemon: telemetry disabled on this deployment (start with tracing)")
		}
		return ctlplane.TraceTreeReply{Trees: s.cfg.Tel.RemoteDumps(a.TraceID)}, nil
	case wireproto.TWorkload:
		a, err := decode[workload.Config](body)
		if err != nil {
			return nil, err
		}
		return s.sess.Workload(ctx, a)
	case wireproto.TNetReset:
		return nil, s.sess.ResetNetCounters()
	case wireproto.TNetRx:
		n, err := s.sess.ComputeRx()
		if err != nil {
			return nil, err
		}
		return encoded(ctlplane.AppendNetRxReply(nil, n)), nil
	default:
		return nil, fmt.Errorf("%w: unknown frame type %d", errBadRequest, t)
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}
