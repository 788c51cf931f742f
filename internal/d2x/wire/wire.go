// Package wire defines the d2xserve wire protocol: a DAP-flavored
// request/response/event scheme carried as newline-delimited JSON frames
// over any byte stream (TCP in production, net.Pipe in tests).
//
// The protocol follows Hanson's machine-independent debugger split: a
// thin client sends small typed requests ("xbt", "continue"), the server
// — which owns the builds, the debuggers, and the shared D2X table
// service — executes them against one debug session per connection and
// replies with the command transcript. Execution commands additionally
// produce asynchronous "stopped" events, and debuggee output streams out
// as "output" events; an output too long for one frame arrives as
// several consecutive output events. The server writes a request's
// events before its response and never drops a frame; a client that
// stops reading stalls only its own connection.
//
// Framing is one JSON object per line, terminated by '\n'. Blank lines
// are ignored, so a human can drive a server from nc(1). A frame is at
// most MaxFrameBytes long, bounding what either side must buffer. The
// codec (codec.go) is written for the five frame types: it encodes by
// appending and decodes in one pass, without reflection, and its bytes
// and values are exactly encoding/json's.
//
// This package is deliberately a pure protocol layer: frame types,
// encode/decode, and a small blocking client. It must not import the
// debugger, the VM, or any other piece of the debug stack — an
// architecture lint (d2xvet's arch/import-graph pass) enforces that, so a
// client links the protocol without linking the service.
package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// Frame type discriminators.
const (
	TypeRequest  = "request"
	TypeResponse = "response"
	TypeEvent    = "event"
)

// Request commands. Launch binds the connection's one debug session to a
// named build; the rest map one-to-one onto debugger and D2X commands.
const (
	CmdLaunch     = "launch"
	CmdBreak      = "break"
	CmdRun        = "run"
	CmdContinue   = "continue"
	CmdStep       = "step"
	CmdNext       = "next"
	CmdFinish     = "finish"
	CmdXBT        = "xbt"
	CmdXFrame     = "xframe"
	CmdXList      = "xlist"
	CmdXVars      = "xvars"
	CmdXBreak     = "xbreak"
	CmdXDel       = "xdel"
	CmdStats      = "stats"
	CmdDisconnect = "disconnect"
	// CmdBatch carries N sub-commands in one frame; the response carries
	// one result per sub-command: one round trip instead of N.
	CmdBatch = "batch"
)

// Event names.
const (
	// EventStopped reports that an execution request halted the debuggee
	// (breakpoint, step, fault, exit); Body.Reason says why.
	EventStopped = "stopped"
	// EventOutput carries debuggee program output produced while an
	// execution request was running.
	EventOutput = "output"
)

// Commands returns the canonical request command set, in documentation
// order. The server rejects anything not in this list.
func Commands() []string {
	return []string{
		CmdLaunch, CmdBreak, CmdRun, CmdContinue, CmdStep, CmdNext,
		CmdFinish, CmdXBT, CmdXFrame, CmdXList, CmdXVars, CmdXBreak,
		CmdXDel, CmdStats, CmdDisconnect, CmdBatch,
	}
}

// KnownCommand reports whether cmd is part of the protocol.
func KnownCommand(cmd string) bool {
	for _, c := range Commands() {
		if c == cmd {
			return true
		}
	}
	return false
}

// MaxFrameBytes bounds one encoded frame (a stats snapshot is the
// largest legitimate frame; 4 MiB leaves two orders of magnitude slack).
const MaxFrameBytes = 4 << 20

// ErrFrameTooLarge is wrapped by the error Encode returns for a frame over
// MaxFrameBytes. Nothing was written, so the stream stays usable.
var ErrFrameTooLarge = errors.New("wire: frame too large")

// Args carries a request's arguments. One flat struct instead of
// per-command payload types: the protocol has three argument shapes
// (a build name, a location/id spec, a variable name) and a flat struct
// keeps the frame self-describing in a transcript.
type Args struct {
	// Example names the build to launch (an examplebuilds pipeline name
	// on the stock server). Launch only.
	Example string `json:"example,omitempty"`
	// Spec is a location or id argument: "file:line" for break/xbreak,
	// a breakpoint id for xdel, a frame number for xframe.
	Spec string `json:"spec,omitempty"`
	// Name is the extended-variable name for xvars ("" lists them).
	Name string `json:"name,omitempty"`
	// Batch is the sub-command list of a batch request (batch only).
	Batch []SubRequest `json:"batch,omitempty"`
}

// SubRequest is one sub-command of a batch request: the same command
// and argument shapes as a standalone request, minus the framing.
// Launch, disconnect, stats and nested batch are not allowed as
// sub-commands.
type SubRequest struct {
	Command   string `json:"command"`
	Arguments *Args  `json:"arguments,omitempty"`
}

// SubResult is one sub-command's outcome inside a batch response.
// Failures are isolated per sub-command: a batch response is Success
// as a whole whenever the batch itself executed, and each SubResult
// reports its own command's fate exactly as a standalone response
// would (Success + Output, or !Success + Message).
type SubResult struct {
	Success bool   `json:"success"`
	Message string `json:"message,omitempty"` // error text when !Success
	Output  string `json:"output,omitempty"`
}

// Body carries a response's or event's payload.
type Body struct {
	// Output is the command's debugger transcript (responses), or the
	// debuggee output chunk (output events).
	Output string `json:"output,omitempty"`
	// Reason is the stop reason on stopped events: "breakpoint",
	// "step", "watchpoint", "fault", "exited", "none".
	Reason string `json:"reason,omitempty"`
	// Exited reports on stopped events that the debuggee is done.
	Exited bool `json:"exited,omitempty"`
	// Session is the server-side debug session ID (launch responses).
	Session int64 `json:"session,omitempty"`
	// Results carries the per-sub-command outcomes of a batch response,
	// in request order, one entry per SubRequest.
	Results []SubResult `json:"results,omitempty"`
}

// Frame is one protocol message. Type selects which fields are
// meaningful: requests carry Command/Arguments, responses carry
// RequestSeq/Success/Message/Body, events carry Event/Body.
type Frame struct {
	Seq  int64  `json:"seq"`
	Type string `json:"type"`

	// Request fields.
	Command   string `json:"command,omitempty"`
	Arguments *Args  `json:"arguments,omitempty"`

	// Response fields.
	RequestSeq int64  `json:"request_seq,omitempty"`
	Success    bool   `json:"success,omitempty"`
	Message    string `json:"message,omitempty"` // error text when !Success

	// Event fields.
	Event string `json:"event,omitempty"`

	Body *Body `json:"body,omitempty"`
}

// Request builds a request frame.
func Request(seq int64, command string, args *Args) *Frame {
	return &Frame{Seq: seq, Type: TypeRequest, Command: command, Arguments: args}
}

// Response builds a successful response to req.
func Response(seq int64, req *Frame, body *Body) *Frame {
	return &Frame{Seq: seq, Type: TypeResponse, Command: req.Command,
		RequestSeq: req.Seq, Success: true, Body: body}
}

// ErrorResponse builds a failed response to req.
func ErrorResponse(seq int64, req *Frame, err error) *Frame {
	return &Frame{Seq: seq, Type: TypeResponse, Command: req.Command,
		RequestSeq: req.Seq, Success: false, Message: err.Error()}
}

// Event builds an event frame.
func Event(seq int64, name string, body *Body) *Frame {
	return &Frame{Seq: seq, Type: TypeEvent, Event: name, Body: body}
}

// Encoder writes frames as newline-delimited JSON. It does no locking and
// no buffering: the server and Client each give it a bufio.Writer and
// flush once per request. It appends each frame into a buffer it keeps,
// and drops that buffer after a frame larger than 64 KiB.
type Encoder struct {
	w   io.Writer
	buf []byte
}

// NewEncoder returns an encoder writing to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// Encode writes one frame and its newline terminator: the bytes of
// json.Marshal(f) and '\n'.
func (e *Encoder) Encode(f *Frame) error {
	b := append(appendFrame(e.buf[:0], f), '\n')
	e.buf = b[:0]
	if cap(b) > keepBytes {
		e.buf = nil
	}
	if len(b) > MaxFrameBytes {
		return fmt.Errorf("%w: %d bytes exceeds the %d-byte limit", ErrFrameTooLarge, len(b), MaxFrameBytes)
	}
	_, err := e.w.Write(b)
	return err
}

// Decoder reads newline-delimited frames. Blank lines are skipped; a
// line over MaxFrameBytes or one that is not a JSON frame is an error.
// It splits lines as bufio.ScanLines does, reading through a 4 KiB
// bufio.Reader; a longer line is assembled in a buffer of its own, which
// the decoder drops after a line over 64 KiB, so one large frame does
// not pin its size for the life of the stream.
type Decoder struct {
	r    *bufio.Reader
	long []byte // a line longer than r's buffer
	err  error  // the error that ends the stream, once seen
	d    decodeState
}

// NewDecoder returns a decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: bufio.NewReaderSize(r, 4096)}
}

// Decode reads the next frame. It returns io.EOF at a clean end of
// stream and a descriptive error on oversized or malformed input.
func (d *Decoder) Decode() (*Frame, error) {
	for {
		line, err := d.readLine()
		if err != nil {
			return nil, err
		}
		if len(trimSpace(line)) == 0 {
			continue
		}
		f, err := d.d.frame(line)
		if cap(d.long) > keepBytes {
			d.long = nil
		}
		return f, err
	}
}

// readLine returns the next line without its "\n" and a "\r" before it,
// and the last line of the stream even without a "\n", as ScanLines
// does. Once the stream has ended it returns the error that ended it:
// io.EOF, a read error, or a line of MaxFrameBytes or more.
func (d *Decoder) readLine() ([]byte, error) {
	if d.err != nil {
		return nil, d.err
	}
	line, err := d.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		d.long = append(d.long[:0], line...)
		for err == bufio.ErrBufferFull && len(d.long) < MaxFrameBytes {
			line, err = d.r.ReadSlice('\n')
			d.long = append(d.long, line...)
		}
		line = d.long
	}
	if err != nil {
		d.err = err
	}
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	} else if n == 0 {
		return nil, d.err
	}
	if len(line) >= MaxFrameBytes {
		d.err = fmt.Errorf("wire: frame exceeds the %d-byte limit", MaxFrameBytes)
		return nil, d.err
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// trimSpace is bytes.TrimSpace for the ASCII whitespace JSON framing can
// produce, avoiding the bytes import for one call.
func trimSpace(b []byte) []byte {
	lo, hi := 0, len(b)
	for lo < hi && (b[lo] == ' ' || b[lo] == '\t' || b[lo] == '\r' || b[lo] == '\n') {
		lo++
	}
	for hi > lo && (b[hi-1] == ' ' || b[hi-1] == '\t' || b[hi-1] == '\r' || b[hi-1] == '\n') {
		hi--
	}
	return b[lo:hi]
}
