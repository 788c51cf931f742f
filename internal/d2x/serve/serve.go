// Package serve implements the d2xserve daemon: debug-as-a-service over
// the wire protocol of internal/d2x/wire.
//
// One server process owns the example builds. Each accepted connection
// gets one debug session (its own debuggee VM and debugger) against the
// build it launches, while every session of a build shares the build's
// D2X runtime — one table decode, one fused rip index, a sharded session
// registry — which is exactly the multiplexing the registry work exists
// for. A connection is served by two goroutines: a reader that decodes
// and executes requests one at a time, and a writer that owns the socket
// and drains an outbound queue. Responses are never dropped; events ride
// a bounded segment of the queue and are shed oldest-first when a client
// reads too slowly, with the cumulative shed count attached to every
// event (Body.Dropped) and mirrored in obs under serve.events.dropped.
package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"d2x/internal/d2x"
	"d2x/internal/d2x/wire"
	"d2x/internal/debugger"
	"d2x/internal/examplebuilds"
	"d2x/internal/obs"
)

// maxQueuedEvents bounds the droppable (event) portion of a connection's
// outbound queue. Responses do not count against it.
const maxQueuedEvents = 256

var (
	srvConns        = obs.GetGauge("serve.conns")
	srvSessions     = obs.GetCounter("serve.sessions")
	srvRequests     = obs.GetCounter("serve.requests")
	srvErrors       = obs.GetCounter("serve.request_errors")
	srvBadFrames    = obs.GetCounter("serve.bad_frames")
	srvDropped      = obs.GetCounter("serve.events.dropped")
	srvEvents       = obs.GetCounter("serve.events.sent")
	srvCmdLatency   = obs.GetHistogram("serve.cmd.latency")
	srvWriteErrors  = obs.GetCounter("serve.write_errors")
	srvBuildsShared = obs.GetCounter("serve.builds.reused")
)

// BuildFunc constructs a named build. The stock server uses
// examplebuilds.Build; tests may inject their own catalogue.
type BuildFunc func(name string) (*d2x.Build, error)

// Server is the debug service. Zero value is not usable; call New.
type Server struct {
	buildFn BuildFunc

	buildMu sync.Mutex
	builds  map[string]*d2x.Build

	connMu sync.Mutex
	conns  map[*conn]struct{}
	ln     net.Listener
	closed bool

	nextSess atomic.Int64
	wg       sync.WaitGroup
}

// New returns a server building examples through examplebuilds.
func New() *Server { return NewWithBuilds(examplebuilds.Build) }

// NewWithBuilds returns a server with a custom build catalogue.
func NewWithBuilds(fn BuildFunc) *Server {
	return &Server{buildFn: fn, builds: map[string]*d2x.Build{}, conns: map[*conn]struct{}{}}
}

// build returns the shared build for name, constructing it on first use.
// All sessions launching the same name share one build — and therefore
// one D2X runtime and one decoded table set.
func (s *Server) build(name string) (*d2x.Build, error) {
	s.buildMu.Lock()
	defer s.buildMu.Unlock()
	if b, ok := s.builds[name]; ok {
		srvBuildsShared.Inc()
		return b, nil
	}
	b, err := s.buildFn(name)
	if err != nil {
		return nil, err
	}
	s.builds[name] = b
	return b, nil
}

// Serve accepts connections on ln until the listener is closed. It
// returns nil after a Close-triggered shutdown and the accept error
// otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	s.connMu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.connMu.Lock()
			closed := s.closed
			s.connMu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		cn := newConn(s, c)
		s.connMu.Lock()
		if s.closed {
			s.connMu.Unlock()
			c.Close()
			return nil
		}
		s.conns[cn] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(2)
		go cn.writeLoop()
		go cn.readLoop()
	}
}

// ListenAndServe listens on addr and serves. The returned ready func
// reports the bound address; see cmd/d2xserve for the flag plumbing.
func (s *Server) ListenAndServe(addr string, ready func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(ln.Addr())
	}
	return s.Serve(ln)
}

// Close shuts the server down: stops accepting, closes every live
// connection, and waits for their goroutines to drain.
func (s *Server) Close() error {
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]*conn, 0, len(s.conns))
	for cn := range s.conns {
		conns = append(conns, cn)
	}
	s.connMu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, cn := range conns {
		cn.shutdown()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) dropConn(cn *conn) {
	s.connMu.Lock()
	delete(s.conns, cn)
	s.connMu.Unlock()
}

// outQueue is a connection's outbound frame queue: a FIFO whose event
// frames are droppable (bounded, shed oldest-first) and whose response
// frames are not. One writer goroutine drains it onto the socket.
type outQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	items   []outItem
	nEvents int
	dropped int64 // cumulative sheds, attached to outgoing events
	closed  bool
}

type outItem struct {
	f         *wire.Frame
	droppable bool
}

func newOutQueue() *outQueue {
	q := &outQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues a frame. Droppable frames shed the oldest droppable
// entry when the event segment is full; non-droppable frames always
// enter the queue (the reader executes one command at a time, so at most
// one response is ever pending).
func (q *outQueue) push(f *wire.Frame, droppable bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	if droppable && q.nEvents >= maxQueuedEvents {
		for i, it := range q.items {
			if it.droppable {
				q.items = append(q.items[:i], q.items[i+1:]...)
				q.nEvents--
				q.dropped++
				srvDropped.Inc()
				break
			}
		}
	}
	if droppable {
		q.nEvents++
	}
	q.items = append(q.items, outItem{f: f, droppable: droppable})
	q.cond.Signal()
}

// pop blocks for the next frame; ok is false once the queue is closed
// and drained. Events leave with the cumulative shed count stamped on.
func (q *outQueue) pop() (*wire.Frame, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return nil, false
	}
	it := q.items[0]
	q.items = q.items[1:]
	if it.droppable {
		q.nEvents--
		if q.dropped > 0 {
			if it.f.Body == nil {
				it.f.Body = &wire.Body{}
			}
			it.f.Body.Dropped = q.dropped
		}
	}
	return it.f, true
}

// close stops the queue accepting new frames. Already-queued frames stay
// and are still drained by pop — a clean disconnect flushes its final
// response; abortive shutdown relies on the socket close failing the
// writes instead.
func (q *outQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// conn is one client connection: its socket, its outbound queue, and —
// after a successful launch — its debug session.
type conn struct {
	srv *Server
	c   net.Conn
	q   *outQueue

	dbg       *debugger.Debugger
	sessionID int64

	progOut    bytes.Buffer // debuggee output, drained into output events
	transcript bytes.Buffer // debugger transcript, returned in responses
	seq        int64        // server-side frame sequence

	writerDone chan struct{}
}

func newConn(s *Server, c net.Conn) *conn {
	return &conn{srv: s, c: c, q: newOutQueue(), writerDone: make(chan struct{})}
}

// shutdown force-closes the connection from the server side.
func (cn *conn) shutdown() {
	cn.q.close()
	cn.c.Close()
}

// writeLoop owns all socket writes: it drains the queue until the queue
// closes or a write fails.
func (cn *conn) writeLoop() {
	defer cn.srv.wg.Done()
	defer close(cn.writerDone)
	enc := wire.NewEncoder(cn.c)
	for {
		f, ok := cn.q.pop()
		if !ok {
			return
		}
		if err := enc.Encode(f); err != nil {
			srvWriteErrors.Inc()
			cn.q.close()
			cn.c.Close()
			return
		}
		if f.Type == wire.TypeEvent {
			srvEvents.Inc()
		}
	}
}

// readLoop decodes and executes requests one at a time until the client
// disconnects or sends garbage.
func (cn *conn) readLoop() {
	defer cn.srv.wg.Done()
	defer func() {
		cn.q.close()
		// Let the writer drain queued frames (a clean disconnect's final
		// response) before the socket goes away; if the peer is gone the
		// writes fail and the writer exits immediately.
		<-cn.writerDone
		cn.c.Close()
		if cn.dbg != nil {
			cn.dbg.Close()
		}
		cn.srv.dropConn(cn)
		srvConns.Add(-1)
	}()
	srvConns.Add(1)
	dec := wire.NewDecoder(cn.c)
	for {
		req, err := dec.Decode()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				srvBadFrames.Inc()
			}
			return
		}
		if req.Type != wire.TypeRequest {
			srvBadFrames.Inc()
			cn.respondErr(req, fmt.Errorf("expected a request frame, got %q", req.Type))
			continue
		}
		srvRequests.Inc()
		start := obs.Now()
		disconnect := cn.handle(req)
		srvCmdLatency.Since(start)
		if disconnect {
			return
		}
	}
}

func (cn *conn) nextSeq() int64 {
	cn.seq++
	return cn.seq
}

func (cn *conn) respond(req *wire.Frame, body *wire.Body) {
	cn.q.push(wire.Response(cn.nextSeq(), req, body), false)
}

func (cn *conn) respondErr(req *wire.Frame, err error) {
	srvErrors.Inc()
	cn.q.push(wire.ErrorResponse(cn.nextSeq(), req, err), false)
}

func (cn *conn) event(name string, body *wire.Body) {
	cn.q.push(wire.Event(cn.nextSeq(), name, body), true)
}

// handle executes one request and enqueues its events and response. It
// reports whether the connection should close (disconnect).
func (cn *conn) handle(req *wire.Frame) (disconnect bool) {
	if !wire.KnownCommand(req.Command) {
		cn.respondErr(req, fmt.Errorf("unknown command %q", req.Command))
		return false
	}
	switch req.Command {
	case wire.CmdLaunch:
		cn.launch(req)
		return false
	case wire.CmdDisconnect:
		cn.respond(req, nil)
		return true
	case wire.CmdStats:
		cn.stats(req)
		return false
	case wire.CmdBatch:
		cn.batch(req)
		return false
	}
	if cn.dbg == nil {
		cn.respondErr(req, fmt.Errorf("no session: send launch first"))
		return false
	}
	body, err := cn.execOne(req.Command, req.Arguments)
	if err != nil {
		cn.respondErr(req, err)
		return false
	}
	cn.respond(req, body)
	return false
}

// execOne maps one command onto the session's debugger and executes it,
// pushing any events it produces, and returns the response body. It is
// the shared execution core of standalone requests and batch
// sub-commands, which is what keeps the two protocols byte-identical.
func (cn *conn) execOne(command string, args *wire.Args) (*wire.Body, error) {
	line, err := commandLine(command, args)
	if err != nil {
		return nil, err
	}
	cn.progOut.Reset()
	cn.transcript.Reset()
	execErr := cn.dbg.Execute(line)
	exec := isExecution(command)
	// Debuggee output produced while the program was running streams out
	// as an event. Output from a paused-state command (the D2X commands
	// print through debuggee natives, so their text arrives on the
	// program stream too) belongs to the command and rides its response.
	if exec && cn.progOut.Len() > 0 {
		cn.event(wire.EventOutput, &wire.Body{Output: cn.progOut.String()})
	}
	if exec && execErr == nil {
		stop := cn.dbg.LastStop()
		cn.event(wire.EventStopped, &wire.Body{
			Reason: stop.Reason.String(),
			Exited: stop.Reason == debugger.StopExited,
		})
	}
	if execErr != nil {
		return nil, execErr
	}
	out := cn.transcript.String()
	if !exec && cn.progOut.Len() > 0 {
		out += cn.progOut.String()
	}
	return &wire.Body{Output: out}, nil
}

// batch executes a batch request: N sub-commands, one response carrying
// one SubResult each. A sub-command failure is isolated to its result;
// the batch response itself fails only when the request as a whole is
// unusable (no session, empty batch).
func (cn *conn) batch(req *wire.Frame) {
	if cn.dbg == nil {
		cn.respondErr(req, fmt.Errorf("no session: send launch first"))
		return
	}
	var subs []wire.SubRequest
	if req.Arguments != nil {
		subs = req.Arguments.Batch
	}
	if len(subs) == 0 {
		cn.respondErr(req, fmt.Errorf("batch needs at least one sub-command"))
		return
	}
	results := make([]wire.SubResult, len(subs))
	for i, sub := range subs {
		switch sub.Command {
		case wire.CmdLaunch, wire.CmdDisconnect, wire.CmdBatch, wire.CmdStats:
			srvErrors.Inc()
			results[i] = wire.SubResult{Message: fmt.Sprintf("command %q is not batchable", sub.Command)}
			continue
		}
		if !wire.KnownCommand(sub.Command) {
			srvErrors.Inc()
			results[i] = wire.SubResult{Message: fmt.Sprintf("unknown command %q", sub.Command)}
			continue
		}
		body, err := cn.execOne(sub.Command, sub.Arguments)
		if err != nil {
			srvErrors.Inc()
			results[i] = wire.SubResult{Message: err.Error()}
			continue
		}
		results[i] = wire.SubResult{Success: true, Output: body.Output}
	}
	cn.respond(req, &wire.Body{Results: results})
}

func (cn *conn) launch(req *wire.Frame) {
	if cn.dbg != nil {
		cn.respondErr(req, fmt.Errorf("session already launched"))
		return
	}
	name := ""
	if req.Arguments != nil {
		name = req.Arguments.Example
	}
	if name == "" {
		cn.respondErr(req, fmt.Errorf("launch needs an example name (one of %v)", examplebuilds.Names()))
		return
	}
	b, err := cn.srv.build(name)
	if err != nil {
		cn.respondErr(req, err)
		return
	}
	d, err := b.NewSessionSplit(&cn.progOut, &cn.transcript)
	if err != nil {
		cn.respondErr(req, err)
		return
	}
	cn.dbg = d
	cn.sessionID = cn.srv.nextSess.Add(1)
	srvSessions.Inc()
	cn.respond(req, &wire.Body{Session: cn.sessionID})
}

func (cn *conn) stats(req *wire.Frame) {
	b, err := obs.Snapshot().MarshalIndent()
	if err != nil {
		cn.respondErr(req, err)
		return
	}
	cn.respond(req, &wire.Body{Output: string(b)})
}

// commandLine maps a request to the debugger command it executes. Only
// this fixed set is reachable — a wire client cannot run arbitrary
// debugger commands (no call, no eval, no shell-adjacent anything).
func commandLine(command string, args *wire.Args) (string, error) {
	spec, name := "", ""
	if args != nil {
		spec, name = args.Spec, args.Name
	}
	needSpec := func(cmd string) (string, error) {
		if spec == "" {
			return "", fmt.Errorf("%s needs a spec argument", cmd)
		}
		return cmd + " " + spec, nil
	}
	switch command {
	case wire.CmdBreak:
		return needSpec("break")
	case wire.CmdRun:
		return "run", nil
	case wire.CmdContinue:
		return "continue", nil
	case wire.CmdStep:
		return "step", nil
	case wire.CmdNext:
		return "next", nil
	case wire.CmdFinish:
		return "finish", nil
	case wire.CmdXBT:
		return "xbt", nil
	case wire.CmdXList:
		return "xlist", nil
	case wire.CmdXFrame:
		return needSpec("xframe")
	case wire.CmdXBreak:
		return needSpec("xbreak")
	case wire.CmdXDel:
		return needSpec("xdel")
	case wire.CmdXVars:
		if name != "" {
			return "xvars " + name, nil
		}
		return "xvars", nil
	}
	return "", fmt.Errorf("command %q has no debugger mapping", command)
}

// isExecution reports whether the command resumes the debuggee (and so
// produces a stopped event).
func isExecution(cmd string) bool {
	switch cmd {
	case wire.CmdRun, wire.CmdContinue, wire.CmdStep, wire.CmdNext, wire.CmdFinish:
		return true
	}
	return false
}
