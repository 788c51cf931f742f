package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
)

// roundTripFrames returns one frame of each shape the protocol sends.
func roundTripFrames() []*Frame {
	return []*Frame{
		Request(1, CmdLaunch, &Args{Example: "power"}),
		Request(2, CmdXBreak, &Args{Spec: "power.dsl:6"}),
		Request(3, CmdXVars, &Args{Name: "row"}),
		Response(7, Request(3, CmdXBT, nil), &Body{Output: "#0 ...\n"}),
		ErrorResponse(8, Request(4, CmdStep, nil), errors.New("no program running")),
		Event(9, EventStopped, &Body{Reason: "breakpoint"}),
		Event(10, EventOutput, &Body{Output: "hello\n"}),
	}
}

func TestFrameRoundTrip(t *testing.T) {
	frames := roundTripFrames()
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, f := range frames {
		if err := enc.Encode(f); err != nil {
			t.Fatalf("encode %+v: %v", f, err)
		}
	}
	if got := strings.Count(buf.String(), "\n"); got != len(frames) {
		t.Fatalf("expected %d newline-terminated frames, counted %d", len(frames), got)
	}
	dec := NewDecoder(&buf)
	for i, want := range frames {
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("decode frame %d: %v", i, err)
		}
		if got.Seq != want.Seq || got.Type != want.Type || got.Command != want.Command ||
			got.RequestSeq != want.RequestSeq || got.Success != want.Success ||
			got.Message != want.Message || got.Event != want.Event {
			t.Errorf("frame %d: got %+v want %+v", i, got, want)
		}
		if (got.Body == nil) != (want.Body == nil) {
			t.Fatalf("frame %d: body presence mismatch", i)
		}
		if want.Body != nil && !reflect.DeepEqual(*got.Body, *want.Body) {
			t.Errorf("frame %d: body got %+v want %+v", i, *got.Body, *want.Body)
		}
		if (got.Arguments == nil) != (want.Arguments == nil) {
			t.Fatalf("frame %d: arguments presence mismatch", i)
		}
		if want.Arguments != nil && !reflect.DeepEqual(*got.Arguments, *want.Arguments) {
			t.Errorf("frame %d: arguments got %+v want %+v", i, *got.Arguments, *want.Arguments)
		}
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Fatalf("expected io.EOF after last frame, got %v", err)
	}
}

// blankLinesInput is one frame between blank lines, ended by "\r\n".
const blankLinesInput = "\n  \n{\"seq\":1,\"type\":\"request\",\"command\":\"stats\"}\r\n\n"

func TestDecoderSkipsBlankLines(t *testing.T) {
	dec := NewDecoder(strings.NewReader(blankLinesInput))
	f, err := dec.Decode()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if f.Command != CmdStats {
		t.Fatalf("got command %q, want %q", f.Command, CmdStats)
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Fatalf("expected io.EOF, got %v", err)
	}
}

// malformedCases are inputs the decoder must reject, with the text its
// error must contain.
var malformedCases = []struct {
	name string
	in   string
	want string
}{
	{"not json", "hello there\n", "malformed frame"},
	{"json array", "[1,2,3]\n", "malformed frame"},
	{"missing type", "{\"seq\":1}\n", "missing type"},
	{"oversized", strings.Repeat("x", MaxFrameBytes+10) + "\n", "exceeds"},
}

func TestDecoderMalformedInput(t *testing.T) {
	for _, tc := range malformedCases {
		t.Run(tc.name, func(t *testing.T) {
			dec := NewDecoder(strings.NewReader(tc.in))
			_, err := dec.Decode()
			if err == nil {
				t.Fatal("expected an error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestEncoderRejectsOversizedFrame(t *testing.T) {
	var buf bytes.Buffer
	f := Event(1, EventOutput, &Body{Output: strings.Repeat("y", MaxFrameBytes)})
	if err := NewEncoder(&buf).Encode(f); !errors.Is(err, ErrFrameTooLarge) || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("expected an oversize error, got %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("a refused frame wrote %d bytes", buf.Len())
	}
}

func TestKnownCommand(t *testing.T) {
	for _, c := range Commands() {
		if !KnownCommand(c) {
			t.Errorf("Commands() entry %q not known", c)
		}
	}
	for _, c := range []string{"", "quit", "LAUNCH", "xbt "} {
		if KnownCommand(c) {
			t.Errorf("%q should not be a known command", c)
		}
	}
}

// scriptServer runs a minimal scripted peer over one end of a net.Pipe:
// for each request it sends the queued events and then the response.
func scriptServer(t *testing.T, conn net.Conn, script []func(req *Frame, enc *Encoder)) {
	t.Helper()
	dec := NewDecoder(conn)
	enc := NewEncoder(conn)
	for _, step := range script {
		req, err := dec.Decode()
		if err != nil {
			t.Errorf("server decode: %v", err)
			return
		}
		if req.Type != TypeRequest {
			t.Errorf("server got non-request frame %+v", req)
			return
		}
		step(req, enc)
	}
}

func TestClientDoBuffersInterleavedEvents(t *testing.T) {
	cs, ss := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		scriptServer(t, ss, []func(*Frame, *Encoder){
			func(req *Frame, enc *Encoder) {
				enc.Encode(Event(1, EventOutput, &Body{Output: "p = 1\n"}))
				enc.Encode(Event(2, EventStopped, &Body{Reason: "breakpoint"}))
				enc.Encode(Response(3, req, &Body{Output: "Continuing.\n"}))
			},
			func(req *Frame, enc *Encoder) {
				enc.Encode(Response(4, req, &Body{Output: "#0 main\n"}))
			},
		})
	}()

	c := NewClient(cs)
	defer c.Close()

	resp, err := c.Do(CmdContinue, nil)
	if err != nil {
		t.Fatalf("Do(continue): %v", err)
	}
	if resp.Body == nil || resp.Body.Output != "Continuing.\n" {
		t.Fatalf("unexpected response body: %+v", resp.Body)
	}
	ev := c.Events()
	if len(ev) != 2 || ev[0].Event != EventOutput || ev[1].Event != EventStopped {
		t.Fatalf("unexpected events: %+v", ev)
	}
	if got := c.Events(); len(got) != 0 {
		t.Fatalf("Events did not drain: %+v", got)
	}

	if _, err := c.Do(CmdXBT, nil); err != nil {
		t.Fatalf("Do(xbt): %v", err)
	}
	if got := c.Events(); len(got) != 0 {
		t.Fatalf("xbt produced spurious events: %+v", got)
	}
	<-done
}

func TestClientDoReturnsRemoteError(t *testing.T) {
	cs, ss := net.Pipe()
	go scriptServer(t, ss, []func(*Frame, *Encoder){
		func(req *Frame, enc *Encoder) {
			enc.Encode(ErrorResponse(1, req, errors.New("no program running")))
		},
	})
	c := NewClient(cs)
	defer c.Close()

	resp, err := c.Do(CmdStep, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("expected *RemoteError, got %v", err)
	}
	if re.Command != CmdStep || !strings.Contains(re.Message, "no program running") {
		t.Fatalf("unexpected remote error: %+v", re)
	}
	if resp == nil || resp.Success {
		t.Fatalf("failed Do should still return the response frame: %+v", resp)
	}
}

func TestClientDoRejectsMismatchedResponse(t *testing.T) {
	cs, ss := net.Pipe()
	go scriptServer(t, ss, []func(*Frame, *Encoder){
		func(req *Frame, enc *Encoder) {
			wrong := *req
			wrong.Seq = req.Seq + 99
			enc.Encode(Response(1, &wrong, nil))
		},
	})
	c := NewClient(cs)
	defer c.Close()

	if _, err := c.Do(CmdStats, nil); err == nil ||
		!strings.Contains(err.Error(), "while waiting on") {
		t.Fatalf("expected a sequence-mismatch error, got %v", err)
	}
}

func TestClientEventBufferSheds(t *testing.T) {
	cs, ss := net.Pipe()
	go scriptServer(t, ss, []func(*Frame, *Encoder){
		func(req *Frame, enc *Encoder) {
			for i := 0; i < maxBufferedEvents+5; i++ {
				enc.Encode(Event(int64(i+1), EventOutput, &Body{Output: "x"}))
			}
			enc.Encode(Response(9999, req, nil))
		},
	})
	c := NewClient(cs)
	defer c.Close()

	if _, err := c.Do(CmdRun, nil); err != nil {
		t.Fatalf("Do(run): %v", err)
	}
	ev := c.Events()
	if len(ev) != maxBufferedEvents {
		t.Fatalf("buffered %d events, want cap %d", len(ev), maxBufferedEvents)
	}
	if c.DroppedLocally() != 5 {
		t.Fatalf("DroppedLocally = %d, want 5", c.DroppedLocally())
	}
	// Oldest were shed: the first surviving event is seq 6.
	if ev[0].Seq != 6 {
		t.Fatalf("first surviving event seq = %d, want 6", ev[0].Seq)
	}
}
