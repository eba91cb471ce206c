// Package daemon is the server side of Squirrel's control plane: it
// owns a deployment (a ctlplane.Session, normally ctlplane.Local) and
// serves it to wireclient connections over the wireproto framing.
//
// cmd/squirreld is a thin flag-parsing wrapper around Server; the
// logic lives here so the loopback end-to-end, equivalence, and
// graceful-shutdown tests can drive a real listening server inside
// `go test -race`.
//
// Concurrency model: one goroutine per connection reads frames. It serves
// a short read-only query (a frame type in inlineOps) itself, between two
// reads, and hands every other request to one of the connection's
// workers: an idle one if one is waiting, else a new one. So a slow boot
// never delays the frames behind it, clients pipeline by request ID, a
// connection has at most as many workers as it has had requests in
// flight at once, and its workers end with it. Whoever produced a reply
// writes it, under the connection's replyWriter mutex; there is no writer
// goroutine. Graceful shutdown (SIGTERM in squirreld, or Server.Shutdown)
// stops accepting connections and reading new frames but lets every
// in-flight request — boots included — run to completion and write its
// response before the connections close; only when the Shutdown context
// expires are request contexts cancelled and connections torn down.
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
	conns    map[net.Conn]struct{}
	draining atomic.Bool
	connWG   sync.WaitGroup
}

// New builds a Server over sess. Call Listen then Serve.
func New(sess ctlplane.Session, cfg Config) *Server {
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = DefaultMaxConns
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{cfg: cfg, sess: sess, ctx: ctx, cancel: cancel, conns: make(map[net.Conn]struct{})}
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
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				s.connWG.Wait()
				return nil
			}
			return fmt.Errorf("daemon: accept: %w", err)
		}
		busy := false
		s.mu.Lock()
		switch {
		case s.draining.Load():
			s.mu.Unlock()
			_ = c.Close()
			continue
		case len(s.conns) >= s.cfg.MaxConns:
			busy = true
		default:
			s.conns[c] = struct{}{}
			s.connWG.Add(1)
		}
		s.mu.Unlock()
		if busy {
			go s.rejectBusy(c)
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
		_ = c.SetReadDeadline(time.Now())
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
			_ = c.Close()
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

// handleConn runs one connection: handshake, then a read loop that
// serves short queries itself and hands every other request to a worker.
func (s *Server) handleConn(c net.Conn) {
	defer func() {
		_ = c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.connWG.Done()
	}()

	br := bufio.NewReader(c)
	_ = c.SetReadDeadline(time.Now().Add(DefaultHandshakeTimeout))
	ver, err := wireproto.ReadHello(br)
	if err != nil {
		return
	}
	if ver != wireproto.Version {
		_ = wireproto.WriteHelloReply(c, wireproto.HelloVersionMismatch,
			fmt.Sprintf("protocol version mismatch: server %s speaks v%d, client sent v%d",
				version.Build, wireproto.Version, ver))
		return
	}
	if err := wireproto.WriteHelloReply(c, wireproto.HelloOK, ""); err != nil {
		return
	}
	_ = c.SetReadDeadline(time.Time{})

	out := &replyWriter{conn: c, fw: wireproto.NewWriter(c)}
	// Requests that can run long go to this connection's workers. The
	// reader hands a frame to an idle worker if one is waiting on jobs
	// and starts another worker if none is, so there are never more
	// workers than the connection's peak of requests in flight, and a
	// worker's grown stack serves the requests after its first.
	jobs := make(chan wireproto.Frame)
	var pending sync.WaitGroup
	work := func(f wireproto.Frame) {
		defer pending.Done()
		for ok := true; ok; f, ok = <-jobs {
			s.serve(f, out)
		}
	}
	for {
		f, err := wireproto.ReadFrame(br)
		if err != nil {
			// EOF, the shutdown nudge, or a framing violation — in every
			// case the stream is done taking requests. A framing error is
			// unrecoverable by construction (the byte stream is out of
			// sync), so closing is the only safe answer.
			break
		}
		switch {
		case s.draining.Load():
			out.send(errorFrame(f, ctlplane.ErrDraining))
		case inlineOps[f.Type]:
			out.send(s.dispatch(f))
		default:
			select {
			case jobs <- f:
			default:
				pending.Add(1)
				go work(f)
			}
		}
	}
	// Drain: idle workers exit, and every accepted request finishes and
	// writes its reply before the connection closes.
	close(jobs)
	pending.Wait()
}

// serve runs one request on a worker and writes its replies.
func (s *Server) serve(f wireproto.Frame, out *replyWriter) {
	if f.Type == wireproto.TWatch {
		s.serveWatch(f, out) // a stream of replies
		return
	}
	out.send(s.dispatch(f))
}

// replyWriter puts reply frames on one connection. Whoever produced a
// reply — the read loop, a request's worker, a watch stream — writes it
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
	result, err := s.handle(obs.ContextWithSpan(s.ctx, sp), f.Type, f.Payload)
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

// inlineOps is the set of frame types the connection's reader serves
// itself: ops whose Session method takes no context, mutates nothing and
// answers in microseconds at any deployment size, where a hand-off to
// another goroutine costs more than the answer. Every other type can run
// long — it takes a context, mutates, or walks the telemetry registry or
// the span ring — and goes to a worker (DESIGN §12).
// TestEveryFrameTypeIsClassified makes a new frame type choose.
var inlineOps = [256]bool{
	wireproto.TInfo: true, wireproto.THealth: true, wireproto.TStats: true,
	wireproto.TNetRx: true, wireproto.TPeers: true,
}

// handle maps one frame type onto the session call it names.
func (s *Server) handle(ctx context.Context, t uint8, body []byte) (any, error) {
	switch t {
	case wireproto.TInfo:
		return s.sess.Info()
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
		body, err := ctlplane.AppendBootReport(nil, rep)
		if err != nil {
			return nil, fmt.Errorf("daemon: encode response: %w", err)
		}
		return encoded(body), nil
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
		body, err := ctlplane.AppendHealthReply(nil, st)
		if err != nil {
			return nil, fmt.Errorf("daemon: encode response: %w", err)
		}
		return encoded(body), nil
	case wireproto.TTelemetry:
		return s.sess.Telemetry()
	case wireproto.TPeers:
		ctr, err := s.sess.PeerCounters()
		if err != nil {
			return nil, err
		}
		return ctlplane.PeersReply{Counters: ctr}, nil
	case wireproto.TStats:
		return s.sess.Stats()
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
		return ctlplane.BytesReply{Bytes: n}, nil
	default:
		return nil, fmt.Errorf("%w: unknown frame type %d", errBadRequest, t)
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}
