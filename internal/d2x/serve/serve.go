// Package serve implements the d2xserve daemon: debug-as-a-service over
// the wire protocol of internal/d2x/wire.
//
// One server process owns the example builds. Each accepted connection
// gets one debug session (its own debuggee VM and debugger) against the
// build it launches, while every session of a build shares the build's
// D2X runtime — one table decode, one fused rip index, a sharded session
// registry — which is exactly the multiplexing the registry work exists
// for. A connection is served by one goroutine. It decodes a request,
// executes it, writes the request's events and then its response, and
// flushes them before it decodes the next request. No frame is queued
// between requests and none is ever dropped: a client that stops reading
// stalls only its own connection, through TCP flow control.
package serve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"d2x/internal/d2x"
	"d2x/internal/d2x/wire"
	"d2x/internal/debugger"
	"d2x/internal/examplebuilds"
	"d2x/internal/obs"
)

var (
	srvConns        = obs.GetGauge("serve.conns")
	srvSessions     = obs.GetCounter("serve.sessions")
	srvRequests     = obs.GetCounter("serve.requests")
	srvErrors       = obs.GetCounter("serve.request_errors")
	srvBadFrames    = obs.GetCounter("serve.bad_frames")
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
		s.wg.Add(1)
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
// connection's socket, and waits for their goroutines to return. A
// goroutine blocked writing to a client that stopped reading returns as
// soon as its socket closes.
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
		cn.c.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) dropConn(cn *conn) {
	s.connMu.Lock()
	delete(s.conns, cn)
	s.connMu.Unlock()
}

// conn is one client connection: its socket, the frames its current
// request produced, and — after a successful launch — its debug session.
// One goroutine serves it (readLoop), so none of its fields are shared.
type conn struct {
	srv *Server
	c   net.Conn
	bw  *bufio.Writer
	enc *wire.Encoder

	dbg       *debugger.Debugger
	sessionID int64

	progOut    bytes.Buffer  // debuggee output, drained into output events
	transcript bytes.Buffer  // debugger transcript, returned in responses
	seq        int64         // server-side frame sequence
	frames     []*wire.Frame // the current request's events, then its response
}

func newConn(s *Server, c net.Conn) *conn {
	bw := bufio.NewWriter(c)
	return &conn{srv: s, c: c, bw: bw, enc: wire.NewEncoder(bw)}
}

// readLoop serves the connection: it decodes one request, executes it,
// and writes the request's frames before it decodes the next, until the
// client disconnects, sends garbage or stops taking writes.
func (cn *conn) readLoop() {
	defer cn.srv.wg.Done()
	defer func() {
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
		disconnect := false
		if req.Type != wire.TypeRequest {
			srvBadFrames.Inc()
			cn.respondErr(req, fmt.Errorf("expected a request frame, got %q", req.Type))
		} else {
			srvRequests.Inc()
			start := obs.Now()
			disconnect = cn.handle(req)
			srvCmdLatency.Since(start)
		}
		if err := cn.flush(req); err != nil {
			srvWriteErrors.Inc()
			return
		}
		if disconnect {
			return
		}
	}
}

// flush encodes the frames req produced, in order, and flushes the
// connection's writer once. A response over wire.MaxFrameBytes is
// replaced by an error response that says so, and the connection stays
// usable; any other failure ends the connection. A client that stops
// reading blocks the flush, and with it only its own connection.
func (cn *conn) flush(req *wire.Frame) error {
	for _, f := range cn.frames {
		err := cn.enc.Encode(f)
		if errors.Is(err, wire.ErrFrameTooLarge) && f.Type == wire.TypeResponse {
			srvErrors.Inc()
			err = cn.enc.Encode(wire.ErrorResponse(f.Seq, req, fmt.Errorf("response not sent: %w", err)))
		}
		if err != nil {
			return err
		}
		if f.Type == wire.TypeEvent {
			srvEvents.Inc()
		}
	}
	clear(cn.frames)
	cn.frames = cn.frames[:0]
	cn.trimBuffers()
	return cn.bw.Flush()
}

// keepBytes bounds the output a connection's buffers keep between
// requests, as the wire codec bounds its own.
const keepBytes = 64 << 10

// trimBuffers drops an output buffer that the request grew past
// keepBytes: a session that printed megabytes once must not hold them
// for the rest of its life. The session writes through pointers to the
// fields, so a fresh zero buffer takes the old one's place.
func (cn *conn) trimBuffers() {
	if cn.progOut.Cap() > keepBytes {
		cn.progOut = bytes.Buffer{}
	}
	if cn.transcript.Cap() > keepBytes {
		cn.transcript = bytes.Buffer{}
	}
}

func (cn *conn) nextSeq() int64 {
	cn.seq++
	return cn.seq
}

func (cn *conn) respond(req *wire.Frame, body *wire.Body) {
	cn.frames = append(cn.frames, wire.Response(cn.nextSeq(), req, body))
}

func (cn *conn) respondErr(req *wire.Frame, err error) {
	srvErrors.Inc()
	cn.frames = append(cn.frames, wire.ErrorResponse(cn.nextSeq(), req, err))
}

func (cn *conn) event(name string, body *wire.Body) {
	cn.frames = append(cn.frames, wire.Event(cn.nextSeq(), name, body))
}

// handle executes one request and collects its events and response. It
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
// collecting any events it produces, and returns the response body. It is
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
		cn.outputEvents(cn.progOut.String())
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

// outputChunk bounds the debuggee output one output event carries, so
// that the event encodes under wire.MaxFrameBytes whatever the output's
// bytes are: the encoder writes at most 6 bytes for one output byte (a
// control byte or an invalid UTF-8 byte becomes a \u escape), and 1 KiB
// holds the rest of the frame.
const outputChunk = (wire.MaxFrameBytes - 1<<10) / 6

// outputEvents sends debuggee output as consecutive output events of at
// most outputChunk bytes each. A cut falls at the start of a UTF-8 rune,
// so no valid rune is split between two events.
func (cn *conn) outputEvents(out string) {
	for len(out) > 0 {
		n := len(out)
		if n > outputChunk {
			n = outputChunk
			for i := n; i > n-utf8.UTFMax; i-- {
				if utf8.RuneStart(out[i]) {
					n = i
					break
				}
			}
		}
		cn.event(wire.EventOutput, &wire.Body{Output: out[:n]})
		out = out[n:]
	}
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
