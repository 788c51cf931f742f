package wire

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"time"
)

// maxBufferedEvents bounds the events a Client holds between Do calls,
// shed oldest-first: a caller that never drains events must not grow the
// client without bound. The server never drops a frame, so these sheds
// are the only way a session's events can go missing.
const maxBufferedEvents = 1024

// Client is a minimal blocking protocol client: one request in flight at
// a time, asynchronous events buffered between calls. It is the client
// the load harness simulates thousands of, and the reference for writing
// one in any other language — the whole protocol is Do plus Events.
//
// A Client is not safe for concurrent use; the protocol's per-connection
// session is single-threaded by design (a debugger has one command
// stream).
type Client struct {
	rwc io.ReadWriteCloser
	bw  *bufio.Writer
	enc *Encoder
	dec *Decoder
	seq int64

	events  []*Frame
	dropped int64
}

// Dial connects to a d2xserve address.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	return NewClient(conn), nil
}

// DialTimeout is Dial with a connect timeout.
func DialTimeout(addr string, d time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established byte stream (a net.Conn, one end of a
// net.Pipe) in a protocol client.
func NewClient(rwc io.ReadWriteCloser) *Client {
	bw := bufio.NewWriter(rwc)
	return &Client{rwc: rwc, bw: bw, enc: NewEncoder(bw), dec: NewDecoder(rwc)}
}

// Do sends one request and blocks until its response arrives, buffering
// any events that precede it. A transport or decode error is returned as
// such; a response with Success == false is returned as *RemoteError.
func (c *Client) Do(command string, args *Args) (*Frame, error) {
	c.seq++
	req := Request(c.seq, command, args)
	if err := c.enc.Encode(req); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	for {
		f, err := c.dec.Decode()
		if err != nil {
			return nil, err
		}
		switch f.Type {
		case TypeEvent:
			c.buffer(f)
		case TypeResponse:
			if f.RequestSeq != req.Seq {
				return nil, fmt.Errorf("wire: response for request %d while waiting on %d", f.RequestSeq, req.Seq)
			}
			if !f.Success {
				return f, &RemoteError{Command: command, Message: f.Message}
			}
			return f, nil
		default:
			return nil, fmt.Errorf("wire: unexpected frame type %q from server", f.Type)
		}
	}
}

// DoBatch sends N sub-commands as one batch request and returns the
// per-sub-command results in order. The error covers the batch itself
// (transport failure, or the server rejecting the whole request);
// individual sub-command failures land in their SubResult.
func (c *Client) DoBatch(subs []SubRequest) ([]SubResult, error) {
	f, err := c.Do(CmdBatch, &Args{Batch: subs})
	if err != nil {
		return nil, err
	}
	if f.Body == nil || len(f.Body.Results) != len(subs) {
		got := 0
		if f.Body != nil {
			got = len(f.Body.Results)
		}
		return nil, fmt.Errorf("wire: batch of %d sub-commands got %d results", len(subs), got)
	}
	return f.Body.Results, nil
}

func (c *Client) buffer(f *Frame) {
	if len(c.events) >= maxBufferedEvents {
		copy(c.events, c.events[1:])
		c.events = c.events[:len(c.events)-1]
		c.dropped++
	}
	c.events = append(c.events, f)
}

// Events drains and returns the events buffered since the last call.
func (c *Client) Events() []*Frame {
	ev := c.events
	c.events = nil
	return ev
}

// DroppedLocally reports how many buffered events the client has shed
// because Events was not called often enough.
func (c *Client) DroppedLocally() int64 { return c.dropped }

// Close closes the underlying stream.
func (c *Client) Close() error { return c.rwc.Close() }

// RemoteError is a server-side command failure: the request was
// transported and executed, and the server said no.
type RemoteError struct {
	Command string
	Message string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("wire: %s: %s", e.Command, e.Message)
}
