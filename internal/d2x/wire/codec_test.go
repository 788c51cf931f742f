package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// refDecoder is the decoder the codec replaced, kept as its oracle: the
// same line splitting, json.Unmarshal into a fresh Frame, and the
// missing-type check.
type refDecoder struct{ sc *bufio.Scanner }

func newRefDecoder(r io.Reader) *refDecoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), MaxFrameBytes)
	return &refDecoder{sc: sc}
}

func (d *refDecoder) Decode() (*Frame, error) {
	for d.sc.Scan() {
		line := d.sc.Bytes()
		if len(trimSpace(line)) == 0 {
			continue
		}
		f := &Frame{}
		if err := json.Unmarshal(line, f); err != nil {
			return nil, fmt.Errorf("wire: malformed frame: %w", err)
		}
		if f.Type == "" {
			return nil, fmt.Errorf("wire: frame missing type")
		}
		return f, nil
	}
	if err := d.sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			return nil, fmt.Errorf("wire: frame exceeds the %d-byte limit", MaxFrameBytes)
		}
		return nil, err
	}
	return nil, io.EOF
}

// step is one Decode call's result.
type step struct {
	f   *Frame
	err error
}

// errKind names the class of a Decode error, which both decoders must
// agree on.
func errKind(err error) string {
	switch {
	case err == nil:
		return "accept"
	case err == io.EOF:
		return "EOF"
	case strings.Contains(err.Error(), "missing type"):
		return "missing type"
	case strings.HasPrefix(err.Error(), "wire: malformed frame: "):
		return "malformed"
	case strings.Contains(err.Error(), "exceeds"):
		return "too long"
	}
	return "other: " + err.Error()
}

// decodeAll runs Decode until io.EOF or an error that ends the stream.
func decodeAll(dec interface{ Decode() (*Frame, error) }) []step {
	var steps []step
	for {
		f, err := dec.Decode()
		steps = append(steps, step{f, err})
		if k := errKind(err); k != "accept" && k != "malformed" && k != "missing type" {
			return steps
		}
	}
}

// decodeAllocPerByte bounds what decoding allocates per input byte. The
// worst input is a long array of empty objects: three bytes ("{},") per
// 40-byte SubResult, in a slice that grows by append as encoding/json
// grows it, by a quarter at a time once it is large, so all its backing
// arrays together come to about five times the last one.
const decodeAllocPerByte = 128

// checkDecode decodes data with NewDecoder and with the reference and
// checks that they agree at every step, that every accepted frame and a
// frame carrying data itself encode as json.Marshal does, and that
// decoding allocates at most decodeAllocPerByte per input byte plus
// 64 KiB.
func checkDecode(t *testing.T, data []byte) []step {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := decodeAll(NewDecoder(bytes.NewReader(data)))
	runtime.ReadMemStats(&after)
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(decodeAllocPerByte*len(data)+64<<10); grew > limit {
		t.Fatalf("decoding %d bytes allocated %d bytes, limit %d", len(data), grew, limit)
	}
	want := decodeAll(newRefDecoder(bytes.NewReader(data)))
	if len(got) != len(want) {
		t.Fatalf("%d decode steps, encoding/json takes %d", len(got), len(want))
	}
	for i := range got {
		if g, w := errKind(got[i].err), errKind(want[i].err); g != w {
			t.Fatalf("step %d: %s (%v), encoding/json: %s (%v)", i, g, got[i].err, w, want[i].err)
		}
		if !reflect.DeepEqual(got[i].f, want[i].f) {
			t.Fatalf("step %d: decoded\n%#v\nencoding/json decodes\n%#v", i, got[i].f, want[i].f)
		}
		if got[i].f != nil {
			checkEncode(t, got[i].f)
		}
	}
	checkEncode(t, &Frame{Seq: 1, Type: TypeEvent, Message: string(data), Body: &Body{Output: string(data)}})
	return got
}

// checkEncode checks that Encode writes json.Marshal(f) and a newline,
// or refuses a frame that would be over MaxFrameBytes and writes nothing.
func checkEncode(t *testing.T, f *Frame) {
	t.Helper()
	want, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	var buf bytes.Buffer
	if err := NewEncoder(&buf).Encode(f); err != nil {
		if !errors.Is(err, ErrFrameTooLarge) || len(want) <= MaxFrameBytes || buf.Len() != 0 {
			t.Fatalf("Encode of a %d-byte frame: %v, wrote %d bytes", len(want), err, buf.Len())
		}
		return
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Encode wrote\n%q\njson.Marshal writes\n%q", buf.Bytes(), want)
	}
}

// readmeLines returns the request lines of README's nc transcript.
func readmeLines(tb testing.TB) []string {
	readme, err := os.ReadFile("../../../README.md")
	if err != nil {
		tb.Fatal(err)
	}
	_, script, _ := strings.Cut(string(readme), "nc 127.0.0.1 4711 <<'EOF'\n")
	script, _, ok := strings.Cut(script, "\nEOF\n")
	if !ok {
		tb.Fatal("README has no nc transcript")
	}
	return strings.Split(script, "\n")
}

// batchFrames returns an 8-command batch request and a response to it.
func batchFrames() []*Frame {
	subs := []SubRequest{
		{Command: CmdXBT},
		{Command: CmdXFrame, Arguments: &Args{Spec: "1"}},
		{Command: CmdXList},
		{Command: CmdXVars},
		{Command: CmdXVars, Arguments: &Args{Name: "frontier"}},
		{Command: CmdXBreak, Arguments: &Args{Spec: "pagerankdelta.gt:12"}},
		{Command: CmdXDel, Arguments: &Args{Spec: "1"}},
		{Command: CmdLaunch, Arguments: &Args{Example: "power"}},
	}
	req := Request(9, CmdBatch, &Args{Batch: subs})
	results := []SubResult{
		{Success: true, Output: "#0 in updateEdges at pagerankdelta.gt:12 <- \"main\" & co\n"},
		{Success: true, Output: "#1 in main at pagerankdelta.gt:30\n"},
		{Success: true, Output: "  11 \tfunc updateEdges(src : Vertex, dst : Vertex)\n> 12 \t  new_rank[dst] += contrib[src];\n"},
		{Success: true, Output: "src dst\n"},
		{Success: false, Message: "no extended variable \"frontier\""},
		{Success: true, Output: "Breakpoint 1 at pagerankdelta.gt:12\n"},
		{Success: true, Output: "Deleted breakpoint 1\n"},
		{Message: "command \"launch\" is not batchable"},
	}
	return []*Frame{req, Response(10, req, &Body{Results: results})}
}

// seedFrames returns the frames the tests in this package send, and a
// few more shapes the server sends.
func seedFrames() []*Frame {
	cont, xbt := Request(1, CmdContinue, nil), Request(2, CmdXBT, nil)
	frames := append(roundTripFrames(), cont, xbt,
		Event(1, EventOutput, &Body{Output: "p = 1\n"}),
		Event(2, EventStopped, &Body{Reason: "breakpoint"}),
		Response(3, cont, &Body{Output: "Continuing.\n"}),
		Response(4, xbt, &Body{Output: "#0 main\n"}),
		ErrorResponse(1, Request(1, CmdStep, nil), errors.New("no program running")),
		Response(1, Request(100, CmdStats, nil), nil),
		Event(1, EventOutput, &Body{Output: "x"}),
		Response(9999, Request(1, CmdRun, nil), nil),
		Event(11, EventStopped, &Body{Reason: "exited", Exited: true}),
		Response(12, Request(1, CmdLaunch, nil), &Body{Session: 42}),
	)
	return append(frames, batchFrames()...)
}

// FuzzDecode: for any input, NewDecoder accepts and rejects the same
// steps as json.Unmarshal and decodes equal frames; every frame it
// accepts, and a frame carrying the input as its output and message,
// encodes as json.Marshal does; and it allocates at most
// decodeAllocPerByte per input byte. Plain `go test` runs the seeds: the
// frames and inputs of this package's tests, README's nc transcript, a
// batch and its response, and the malformed cases.
func FuzzDecode(f *testing.F) {
	for _, fr := range seedFrames() {
		b, err := json.Marshal(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append(b, '\n'))
	}
	lines := readmeLines(f)
	for _, l := range lines {
		f.Add([]byte(l))
	}
	f.Add([]byte(strings.Join(lines, "\n") + "\n"))
	f.Add([]byte(blankLinesInput))
	for _, tc := range malformedCases {
		f.Add([]byte(tc.in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
	})
}

// nest returns n nested arrays.
func nest(n int) string {
	return strings.Repeat("[", n) + strings.Repeat("]", n)
}

// TestDecodeEdgeCases pins the cases where encoding/json's behaviour is
// easiest to get wrong: each line must decode as it does with
// encoding/json, and be accepted or rejected as listed.
func TestDecodeEdgeCases(t *testing.T) {
	cases := []struct {
		name, in string
		accept   bool
	}{
		{"folded keys", `{"SEQ":1,"Type":"request","coMMand":"xbt"}`, true},
		{"long s folds to s", `{"ſeq":7,"type":"event","body":{"ſeſſion":3}}`, true},
		{"escaped key", `{"t\u0079pe":"request","s\u0065q":2}`, true},
		{"unknown keys skipped", `{"x":{"a":[1,-2.5e+3,{"b":null}],"c":"é"},"type":"request","y":[]}`, true},
		{"unknown key with a bad value", `{"type":"request","x":[1,]}`, false},
		{"unknown key with a bad number", `{"type":"request","x":01}`, false},
		{"non-ASCII key", `{"typé":"x","type":"event"}`, true},
		{"empty key", `{"":1,"type":"event"}`, true},
		{"last duplicate wins", `{"seq":1,"type":"request","seq":2,"type":"event"}`, true},
		{"repeated arguments merge", `{"type":"request","arguments":{"spec":"a"},"arguments":{"name":"b"}}`, true},
		{"repeated body merges", `{"type":"response","body":{"output":"x","session":4},"body":{"reason":"step"}}`, true},
		{"repeated batch decodes in place", `{"type":"request","arguments":{"batch":[{"command":"xbt","arguments":{"spec":"1"}},{"command":"xlist"}]},"arguments":{"batch":[{"command":"xframe"}]}}`, true},
		{"regrown batch keeps stale elements", `{"type":"request","arguments":{"batch":[{"command":"a"},{"command":"b"}],"batch":[{"command":"c"}],"batch":[null,null]}}`, true},
		{"repeated results", `{"type":"response","body":{"results":[{"success":true,"output":"a"},{"message":"m"}]},"body":{"results":[{"output":"b"}]},"body":{"results":[{},{},{}]}}`, true},
		{"null keeps scalars", `{"seq":3,"type":"event","seq":null,"success":true,"success":null,"event":"output","event":null}`, true},
		{"null clears pointers", `{"type":"event","body":{"output":"x"},"body":null,"arguments":null}`, true},
		{"null clears slices", `{"type":"request","arguments":{"batch":[{"command":"xbt"}],"batch":null}}`, true},
		{"null elements", `{"type":"request","arguments":{"batch":[null,{"command":"xbt"},null]}}`, true},
		{"empty batch", `{"type":"request","arguments":{"batch":[]}}`, true},
		{"emptied batch", `{"type":"request","arguments":{"batch":[{"command":"xbt"}],"batch":[]}}`, true},
		{"empty results", `{"type":"response","body":{"results":[]}}`, true},
		{"max int64", `{"seq":9223372036854775807,"type":"event"}`, true},
		{"min int64", `{"seq":-9223372036854775808,"type":"event"}`, true},
		{"int64 overflow", `{"seq":9223372036854775808,"type":"event"}`, false},
		{"int64 underflow", `{"seq":-9223372036854775809,"type":"event"}`, false},
		{"negative zero", `{"seq":-0,"type":"event","body":{"session":-0}}`, true},
		{"fraction", `{"seq":1.0,"type":"event"}`, false},
		{"exponent", `{"seq":1e2,"type":"event"}`, false},
		{"leading zero", `{"seq":01,"type":"event"}`, false},
		{"bare minus", `{"seq":-,"type":"event"}`, false},
		{"string for int", `{"seq":"1","type":"event"}`, false},
		{"bool for int", `{"seq":true,"type":"event"}`, false},
		{"string for bool", `{"type":"response","success":"true"}`, false},
		{"number for string", `{"type":1}`, false},
		{"array for object", `{"type":"event","body":[]}`, false},
		{"object for array", `{"type":"request","arguments":{"batch":{}}}`, false},
		{"trailing comma in a batch", `{"type":"request","arguments":{"batch":[{"command":"xbt"},]}}`, false},
		{"leading comma in a batch", `{"type":"request","arguments":{"batch":[,{"command":"xbt"}]}}`, false},
		{"string element", `{"type":"request","arguments":{"batch":["xbt"]}}`, false},
		{"surrogate pair", `{"type":"event","body":{"output":"\ud83d\ude00"}}`, true},
		{"lone high surrogate", `{"type":"event","body":{"output":"a\ud83db"}}`, true},
		{"lone low surrogate", `{"type":"event","body":{"output":"\ude00"}}`, true},
		{"high surrogate before another escape", `{"type":"event","body":{"output":"\ud83dA\ud83d\n"}}`, true},
		{"two high surrogates", `{"type":"event","body":{"output":"\ud83d\ud83d\ude00"}}`, true},
		{"escapes", `{"type":"event","body":{"output":"\"\\\/\b\f\n\r\t\u0000\u001F\u00e9\u2028\uFFFD"}}`, true},
		{"invalid UTF-8", "{\"type\":\"event\",\"body\":{\"output\":\"a\xffb\xc0\x80\xed\xa0\x80\xf0\x9f\x98\"}}", true},
		{"valid UTF-8", `{"type":"event","body":{"output":"é€😀"}}`, true},
		{"bad escape", `{"type":"event","message":"\x"}`, false},
		{"short unicode escape", `{"type":"event","message":"\u12"}`, false},
		{"control byte in string", "{\"type\":\"event\",\"message\":\"a\tb\"}", false},
		{"DEL in string", "{\"type\":\"event\",\"message\":\"a\x7fb\"}", true},
		{"unterminated string", `{"type":"event`, false},
		{"trailing value", `{"type":"event"} {}`, false},
		{"trailing garbage", `{"type":"event"}x`, false},
		{"trailing space", "{\"type\":\"event\"} \t ", true},
		{"trailing comma", `{"type":"event",}`, false},
		{"missing colon", `{"type" "event"}`, false},
		{"single quotes", `{'type':'event'}`, false},
		{"spaced out", " { \"seq\" : 1 , \"type\" : \"event\" , \"body\" : { } } ", true},
		{"bad literal", `{"type":"event","success":tru}`, false},
		{"top-level null", `null`, false},
		{"top-level string", `"event"`, false},
		{"top-level number", `12`, false},
		{"top-level array", `[{"type":"event"}]`, false},
		{"missing type", `{"seq":1,"type":""}`, false},
		{"type cleared by null is kept", `{"type":"event","type":null}`, true},
		{"10000 deep", `{"type":"event","x":` + nest(9999) + `}`, true},
		{"10001 deep", `{"type":"event","x":` + nest(10000) + `}`, false},
		{"10000 deep in a batch", `{"type":"request","arguments":{"batch":[{"arguments":{"x":` + nest(9995) + `}}]}}`, true},
		{"10001 deep in a batch", `{"type":"request","arguments":{"batch":[{"arguments":{"x":` + nest(9996) + `}}]}}`, false},
		{"10000 deep in objects", `{"type":"event","x":` + strings.Repeat(`{"a":`, 9999) + "1" + strings.Repeat("}", 9999) + `}`, true},
		{"10001 deep in objects", `{"type":"event","x":` + strings.Repeat(`{"a":`, 10000) + "1" + strings.Repeat("}", 10000) + `}`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			steps := checkDecode(t, []byte(tc.in+"\n"))
			if got := steps[0].err == nil; got != tc.accept {
				t.Fatalf("accepted %v (%v), want %v", got, steps[0].err, tc.accept)
			}
		})
	}
}

// TestDecodeFixedStrings: the protocol's fixed strings decode to the
// package constants and allocate nothing but the frame and its body.
func TestDecodeFixedStrings(t *testing.T) {
	line := []byte(`{"seq":1,"type":"event","event":"stopped","body":{"reason":"breakpoint"}}` + "\n")
	var d decodeState
	allocs := testing.AllocsPerRun(100, func() {
		f, err := d.frame(line)
		if err != nil || f.Type != TypeEvent || f.Event != EventStopped || f.Body.Reason != "breakpoint" {
			t.Fatalf("decoded %+v, %v", f, err)
		}
	})
	if allocs != 2 {
		t.Fatalf("decoding a stopped event allocated %.0f times, want 2 (the frame and its body)", allocs)
	}
}

// TestEncodeEdgeCases: frames whose strings need every kind of escape,
// and whose omitempty members are all set or all empty, encode as
// json.Marshal does.
func TestEncodeEdgeCases(t *testing.T) {
	all := "<a href=\"x\">&amp;</a>\\ \b\f\n\r\t\x00\x01\x1f\x7f é€😀 \u2028\u2029 \xff\xc0\x80\xed\xa0\x80\xf0\x9f\x98"
	frames := []*Frame{
		nil,
		{},
		{Seq: -1, Type: all, Command: all, Arguments: &Args{}, RequestSeq: -9223372036854775808,
			Success: true, Message: all, Event: all, Body: &Body{}},
		Request(1, all, &Args{Example: all, Spec: all, Name: all, Batch: []SubRequest{{}, {Command: all, Arguments: &Args{Name: all}}}}),
		Response(2, Request(1, CmdBatch, nil), &Body{Output: all, Reason: all, Exited: true, Session: 9223372036854775807,
			Results: []SubResult{{}, {Success: true, Message: all, Output: all}}}),
		Request(3, CmdBatch, &Args{Batch: []SubRequest{}}),
		Response(4, Request(3, CmdBatch, nil), &Body{Results: []SubResult{}}),
	}
	for _, f := range frames {
		checkEncode(t, f)
	}
}

// TestEncoderDropsLargeBuffer: after a frame over 64 KiB the Encoder does
// not keep a frame-sized buffer.
func TestEncoderDropsLargeBuffer(t *testing.T) {
	e := NewEncoder(io.Discard)
	if err := e.Encode(Event(1, EventOutput, &Body{Output: strings.Repeat("x", 1<<20)})); err != nil {
		t.Fatal(err)
	}
	if cap(e.buf) != 0 {
		t.Fatalf("the encoder kept a %d-byte buffer after a 1 MiB frame", cap(e.buf))
	}
	if err := e.Encode(Request(2, CmdXBT, nil)); err != nil {
		t.Fatal(err)
	}
	if cap(e.buf) == 0 || cap(e.buf) > keepBytes {
		t.Fatalf("the encoder keeps a %d-byte buffer after a small frame", cap(e.buf))
	}
}

// TestMemberNamesMatchTags: the decoder's member tables list each wire
// type's JSON names in field order, so a field added to a type without
// a decoder for it fails here.
func TestMemberNamesMatchTags(t *testing.T) {
	for _, r := range []record{&Frame{}, &Args{}, &SubRequest{}, &Body{}, &SubResult{}} {
		typ := reflect.TypeOf(r).Elem()
		var tags []string
		for i := 0; i < typ.NumField(); i++ {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			tags = append(tags, name)
		}
		if !reflect.DeepEqual(r.names(), tags) {
			t.Errorf("%s: member table %q, JSON names %q", typ.Name(), r.names(), tags)
		}
	}
}
