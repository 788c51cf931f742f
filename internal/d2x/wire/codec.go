package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// The codec is schema-specific: it knows the five wire types and nothing
// else. Its contract is encoding/json's behaviour on those types, byte
// for byte on the way out and value for value on the way in, so the
// tests use encoding/json as the oracle (FuzzDecode, TestDecodeEdgeCases,
// TestReadmeTranscript).

// maxDepth is encoding/json's nesting limit: an object or array opened
// at depth 10001 is an error, in a known field or in a skipped one.
const maxDepth = 10000

// keepBytes bounds the scratch an Encoder or Decoder keeps between
// frames, so one large frame does not pin a frame-sized buffer per
// connection.
const keepBytes = 64 << 10

// ---- Encoding ----

// appendFrame appends json.Marshal(f): the fields in struct order, each
// omitempty field left out when zero.
func appendFrame(b []byte, f *Frame) []byte {
	if f == nil {
		return append(b, "null"...)
	}
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, f.Seq, 10)
	b = append(b, `,"type":`...)
	b = appendString(b, f.Type)
	if f.Command != "" {
		b = appendString(append(b, `,"command":`...), f.Command)
	}
	if f.Arguments != nil {
		b = appendArgs(append(b, `,"arguments":`...), f.Arguments)
	}
	if f.RequestSeq != 0 {
		b = strconv.AppendInt(append(b, `,"request_seq":`...), f.RequestSeq, 10)
	}
	if f.Success {
		b = append(b, `,"success":true`...)
	}
	if f.Message != "" {
		b = appendString(append(b, `,"message":`...), f.Message)
	}
	if f.Event != "" {
		b = appendString(append(b, `,"event":`...), f.Event)
	}
	if f.Body != nil {
		b = appendBody(append(b, `,"body":`...), f.Body)
	}
	return append(b, '}')
}

// member appends a member's `"name":`, after a comma unless it is the
// first member of the object whose '{' ends at open.
func member(b []byte, open int, name string) []byte {
	if len(b) > open {
		b = append(b, ',')
	}
	return append(b, name...)
}

func appendArgs(b []byte, a *Args) []byte {
	b = append(b, '{')
	open := len(b)
	if a.Example != "" {
		b = appendString(member(b, open, `"example":`), a.Example)
	}
	if a.Spec != "" {
		b = appendString(member(b, open, `"spec":`), a.Spec)
	}
	if a.Name != "" {
		b = appendString(member(b, open, `"name":`), a.Name)
	}
	if len(a.Batch) > 0 {
		b = append(member(b, open, `"batch":`), '[')
		for i := range a.Batch {
			if i > 0 {
				b = append(b, ',')
			}
			s := &a.Batch[i]
			b = appendString(append(b, `{"command":`...), s.Command)
			if s.Arguments != nil {
				b = appendArgs(append(b, `,"arguments":`...), s.Arguments)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

func appendBody(b []byte, body *Body) []byte {
	b = append(b, '{')
	open := len(b)
	if body.Output != "" {
		b = appendString(member(b, open, `"output":`), body.Output)
	}
	if body.Reason != "" {
		b = appendString(member(b, open, `"reason":`), body.Reason)
	}
	if body.Exited {
		b = member(b, open, `"exited":true`)
	}
	if body.Session != 0 {
		b = strconv.AppendInt(member(b, open, `"session":`), body.Session, 10)
	}
	if len(body.Results) > 0 {
		b = append(member(b, open, `"results":`), '[')
		for i := range body.Results {
			if i > 0 {
				b = append(b, ',')
			}
			r := &body.Results[i]
			b = strconv.AppendBool(append(b, `{"success":`...), r.Success)
			if r.Message != "" {
				b = appendString(append(b, `,"message":`...), r.Message)
			}
			if r.Output != "" {
				b = appendString(append(b, `,"output":`...), r.Output)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// htmlSafe marks the bytes encoding/json writes as themselves when it
// escapes HTML: the plain bytes but '<', '>' and '&'.
var htmlSafe = func() (t [256]bool) {
	t = plainByte
	t['<'], t['>'], t['&'] = false, false, false
	return t
}()

const hex = "0123456789abcdef"

// shortEscaped lists the bytes a JSON string escapes as a backslash and
// one more byte, and shortEscapes those bytes, in the same order.
const shortEscaped, shortEscapes = "\"\\\b\f\n\r\t", "\"\\bfnrt"

// appendString appends s quoted the way encoding/json quotes it: short
// escapes for '"', '\\' and \b \f \n \r \t, \u00XX for the other control
// bytes and for '<', '>', '&', the escaped U+FFFD for each byte that is
// not valid UTF-8, and escapes for U+2028 and U+2029.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if htmlSafe[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			if k := strings.IndexByte(shortEscaped, c); k >= 0 {
				b = append(b, '\\', shortEscapes[k])
			} else {
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && n == 1:
			b = append(append(b, s[start:i]...), "\\ufffd"...)
		case r == 0x2028 || r == 0x2029:
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += n
			continue
		}
		i += n
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// ---- Decoding ----

// decodeState decodes one line in a single pass. It checks the syntax as
// it goes and stops at the first error, so a line is either decoded
// whole or rejected.
type decodeState struct {
	data    []byte
	off     int
	scratch []byte // unquoted keys and string values
	stack   []byte // the open containers of a value being skipped
}

// A record is one of the five wire types as the object loop sees it: a
// table of member names, and a setter that decodes the value at d.off
// into the member at an index of that table.
type record interface {
	names() []string
	decodeMember(d *decodeState, i, depth int) error
}

var (
	frameNames      = []string{"seq", "type", "command", "arguments", "request_seq", "success", "message", "event", "body"}
	argsNames       = []string{"example", "spec", "name", "batch"}
	subRequestNames = []string{"command", "arguments"}
	bodyNames       = []string{"output", "reason", "exited", "session", "results"}
	subResultNames  = []string{"success", "message", "output"}
)

func (*Frame) names() []string      { return frameNames }
func (*Args) names() []string       { return argsNames }
func (*SubRequest) names() []string { return subRequestNames }
func (*Body) names() []string       { return bodyNames }
func (*SubResult) names() []string  { return subResultNames }

func (f *Frame) decodeMember(d *decodeState, i, depth int) error {
	switch i {
	case 0:
		return d.int(&f.Seq)
	case 1:
		return d.str(&f.Type, true)
	case 2:
		return d.str(&f.Command, true)
	case 3:
		return decodePtr(d, &f.Arguments, depth)
	case 4:
		return d.int(&f.RequestSeq)
	case 5:
		return d.bool(&f.Success)
	case 6:
		return d.str(&f.Message, false)
	case 7:
		return d.str(&f.Event, true)
	}
	return decodePtr(d, &f.Body, depth)
}

func (a *Args) decodeMember(d *decodeState, i, depth int) error {
	switch i {
	case 0:
		return d.str(&a.Example, false)
	case 1:
		return d.str(&a.Spec, false)
	case 2:
		return d.str(&a.Name, false)
	}
	return decodeSlice(d, &a.Batch, depth)
}

func (s *SubRequest) decodeMember(d *decodeState, i, depth int) error {
	if i == 0 {
		return d.str(&s.Command, true)
	}
	return decodePtr(d, &s.Arguments, depth)
}

func (b *Body) decodeMember(d *decodeState, i, depth int) error {
	switch i {
	case 0:
		return d.str(&b.Output, false)
	case 1:
		return d.str(&b.Reason, true)
	case 2:
		return d.bool(&b.Exited)
	case 3:
		return d.int(&b.Session)
	}
	return decodeSlice(d, &b.Results, depth)
}

func (r *SubResult) decodeMember(d *decodeState, i, depth int) error {
	switch i {
	case 0:
		return d.bool(&r.Success)
	case 1:
		return d.str(&r.Message, false)
	}
	return d.str(&r.Output, false)
}

// fixedStrings maps each of the protocol's fixed strings (frame types,
// commands, event names, stop reasons) to itself, so a Type, Command,
// Event or Reason that is one of them decodes to the constant instead of
// a new copy.
var fixedStrings = func() map[string]string {
	m := map[string]string{}
	for _, s := range append(Commands(), TypeRequest, TypeResponse, TypeEvent, EventStopped, EventOutput,
		"none", "breakpoint", "watchpoint", "step", "fault", "exited") {
		m[s] = s
	}
	return m
}()

// frame decodes line into a fresh Frame. It accepts what json.Unmarshal
// into a fresh Frame accepts and decodes it to an equal value.
func (d *decodeState) frame(line []byte) (*Frame, error) {
	d.data, d.off = line, 0
	defer d.release()
	f := &Frame{}
	d.ws()
	switch d.peek() {
	case '{':
		if err := d.object(0, f); err != nil {
			return nil, err
		}
	case 'n': // json.Unmarshal leaves the frame as it is
		if err := d.literal("null"); err != nil {
			return nil, err
		}
	default:
		return nil, d.mismatch("frame")
	}
	d.ws()
	if d.off < len(d.data) {
		return nil, d.syntax("after top-level value")
	}
	if f.Type == "" {
		return nil, errors.New("wire: frame missing type")
	}
	return f, nil
}

// release drops the line and, after a large frame, the scratch buffers.
func (d *decodeState) release() {
	d.data = nil
	if cap(d.scratch) > keepBytes {
		d.scratch = nil
	}
	if cap(d.stack) > keepBytes {
		d.stack = nil
	}
}

func (d *decodeState) errorf(off int, format string, args ...any) error {
	return fmt.Errorf("wire: malformed frame: %s at byte %d", fmt.Sprintf(format, args...), off)
}

// syntax reports the byte at d.off as unexpected where it stands.
func (d *decodeState) syntax(where string) error {
	if d.off >= len(d.data) {
		return d.errorf(d.off, "unexpected end of JSON input")
	}
	return d.errorf(d.off, "invalid character %q %s", d.data[d.off], where)
}

// mismatch reports a value of the wrong kind for a member, which
// json.Unmarshal rejects too.
func (d *decodeState) mismatch(member string) error {
	if strings.IndexByte(`{["tfn-0123456789`, d.peek()) < 0 {
		return d.syntax("looking for beginning of value")
	}
	return d.errorf(d.off, "cannot decode this value into a %s member", member)
}

func (d *decodeState) peek() byte {
	return d.at(d.off)
}

// at returns data[i], or 0, which no JSON token starts with, past the end.
func (d *decodeState) at(i int) byte {
	if i < len(d.data) {
		return d.data[i]
	}
	return 0
}

func (d *decodeState) ws() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

func (d *decodeState) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.peek() != lit[i] {
			return d.syntax("in literal " + lit)
		}
		d.off++
	}
	return nil
}

// object decodes the object at d.off into v, whose parent is at depth.
// It is the one object loop. A member whose name matches none of v's
// names, exactly or folded as bytes.EqualFold folds, is skipped; a
// repeated member decodes again over what the first one set.
func (d *decodeState) object(depth int, v record) error {
	if depth++; depth > maxDepth {
		return d.errorf(d.off, "exceeded max depth")
	}
	d.off++
	d.ws()
	if d.peek() == '}' {
		d.off++
		return nil
	}
	names := v.names()
	for {
		if d.peek() != '"' {
			return d.syntax("looking for beginning of object key string")
		}
		key, err := d.string()
		if err != nil {
			return err
		}
		if err := d.colon(); err != nil {
			return err
		}
		if i := memberIndex(names, key); i >= 0 {
			err = v.decodeMember(d, i, depth)
		} else {
			err = d.skip(depth)
		}
		if err != nil {
			return err
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.off++
			d.ws()
		case '}':
			d.off++
			return nil
		default:
			return d.syntax("after object key:value pair")
		}
	}
}

// memberIndex looks key up in names as encoding/json does: an exact
// match first, then a case-folded one.
func memberIndex(names []string, key []byte) int {
	for i, n := range names {
		if string(key) == n {
			return i
		}
	}
	for i, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return i
		}
	}
	return -1
}

// colon consumes the ':' after an object key and the space around it.
func (d *decodeState) colon() error {
	d.ws()
	if d.peek() != ':' {
		return d.syntax("after object key")
	}
	d.off++
	d.ws()
	return nil
}

// decodePtr decodes a pointer member: null sets it to nil, and an object
// decodes into the struct it points at, allocated first if it is nil.
func decodePtr[T any, P interface {
	*T
	record
}](d *decodeState, p **T, depth int) error {
	switch d.peek() {
	case 'n':
		*p = nil
		return d.literal("null")
	case '{':
		if *p == nil {
			*p = new(T)
		}
		return d.object(depth, P(*p))
	}
	return d.mismatch("object")
}

// decodeSlice decodes a slice member; it is the one array loop. Like
// encoding/json it works in place: element i decodes over what the
// backing array already holds there, a null element leaves it as it is,
// the slice grows by append and shrinks to the elements read, and []
// gives an empty, non-nil slice.
func decodeSlice[T any, P interface {
	*T
	record
}](d *decodeState, p *[]T, depth int) error {
	switch d.peek() {
	case 'n':
		*p = nil
		return d.literal("null")
	case '[':
	default:
		return d.mismatch("array")
	}
	if depth++; depth > maxDepth {
		return d.errorf(d.off, "exceeded max depth")
	}
	d.off++
	d.ws()
	if d.peek() == ']' {
		d.off++
		*p = []T{}
		return nil
	}
	s, n := *p, 0
	for {
		if n == cap(s) {
			var zero T
			s = append(s, zero)
		} else if n == len(s) {
			s = s[:n+1]
		}
		switch d.peek() {
		case '{':
			if err := d.object(depth, P(&s[n])); err != nil {
				return err
			}
		case 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		default:
			return d.mismatch("object")
		}
		n++
		d.ws()
		if d.peek() != ',' {
			break
		}
		d.off++
		d.ws()
	}
	if d.peek() != ']' {
		return d.syntax("after array element")
	}
	d.off++
	*p = s[:n]
	return nil
}

func (d *decodeState) bool(p *bool) error {
	switch d.peek() {
	case 't':
		*p = true
		return d.literal("true")
	case 'f':
		*p = false
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	return d.mismatch("bool")
}

// int decodes an int64 member. Like encoding/json it takes integer
// literals in range only: 1.0, 1e2 and 9223372036854775808 are errors.
func (d *decodeState) int(p *int64) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c != '-' && (c < '0' || c > '9'):
		return d.mismatch("int64")
	}
	start := d.off
	isInt, err := d.number()
	if err != nil {
		return err
	}
	digits, limit := d.data[start:d.off], uint64(math.MaxInt64)
	neg := digits[0] == '-'
	if neg {
		digits, limit = digits[1:], limit+1
	}
	var n uint64
	for _, c := range digits {
		if !isInt || n > (limit-uint64(c-'0'))/10 {
			return d.errorf(start, "number %s is not an int64", d.data[start:d.off])
		}
		n = n*10 + uint64(c-'0')
	}
	if neg {
		*p = -int64(n)
	} else {
		*p = int64(n)
	}
	return nil
}

// number consumes one JSON number and reports whether it has neither a
// fraction nor an exponent.
func (d *decodeState) number() (isInt bool, err error) {
	digits := func() int {
		n := 0
		for '0' <= d.peek() && d.peek() <= '9' {
			d.off++
			n++
		}
		return n
	}
	if d.peek() == '-' {
		d.off++
	}
	switch c := d.peek(); {
	case c == '0':
		d.off++
	case '1' <= c && c <= '9':
		digits()
	default:
		return false, d.syntax("in numeric literal")
	}
	isInt = true
	if d.peek() == '.' {
		d.off++
		if isInt = false; digits() == 0 {
			return false, d.syntax("after decimal point in numeric literal")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.off++
		if c := d.peek(); c == '+' || c == '-' {
			d.off++
		}
		if isInt = false; digits() == 0 {
			return false, d.syntax("in exponent of numeric literal")
		}
	}
	return isInt, nil
}

// str decodes a string member; null leaves it as it is. With fixed set,
// one of the protocol's fixed strings decodes to its constant.
func (d *decodeState) str(p *string, fixed bool) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
	default:
		return d.mismatch("string")
	}
	b, err := d.string()
	if err != nil {
		return err
	}
	s, ok := "", false
	if fixed {
		s, ok = fixedStrings[string(b)]
	}
	if !ok {
		s = string(b)
	}
	*p = s
	return nil
}

// string consumes a string, checking it as it goes, and returns its
// value. The value aliases the line when the string is plain ASCII with
// no escapes, and is built in the scratch buffer otherwise; like
// encoding/json, it turns each byte that is not valid UTF-8, and each
// escaped surrogate that is not half of a pair, into U+FFFD.
func (d *decodeState) string() ([]byte, error) {
	start := d.off + 1
	i := d.plainRun(start)
	if d.at(i) == '"' {
		d.off = i + 1
		return d.data[start:i], nil
	}
	b := append(d.scratch[:0], d.data[start:i]...)
	for {
		switch c := d.at(i); {
		case c == '"':
			d.off, d.scratch = i+1, b
			return b, nil
		case c == '\\':
			var err error
			if b, i, err = d.unescape(b, i); err != nil {
				return nil, err
			}
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(d.data[i:])
			if r == utf8.RuneError && n == 1 {
				b = utf8.AppendRune(b, r)
			} else {
				b = append(b, d.data[i:i+n]...)
			}
			i += n
		default: // a control byte, or the end of the line
			d.off = i
			return nil, d.syntax("in string literal")
		}
		j := d.plainRun(i)
		b = append(b, d.data[i:j]...)
		i = j
	}
}

// unescape appends the value of the escape at data[i] to b and returns
// the index after it. A \u escape of a surrogate takes the next \u
// escape with it when the two make a pair, and is U+FFFD when not.
func (d *decodeState) unescape(b []byte, i int) ([]byte, int, error) {
	switch e := d.at(i + 1); {
	case e == '/':
		return append(b, e), i + 2, nil
	case e != 'u':
		if k := strings.IndexByte(shortEscapes, e); k >= 0 {
			return append(b, shortEscaped[k]), i + 2, nil
		}
	default:
		r := d.hex4(i + 2)
		if r < 0 {
			for d.off = i + 2; isHex(d.peek()); d.off++ {
			}
			return nil, 0, d.syntax("in \\u hexadecimal character escape")
		}
		i += 6
		if utf16.IsSurrogate(r) {
			r2 := rune(-1)
			if d.at(i) == '\\' && d.at(i+1) == 'u' {
				r2 = d.hex4(i + 2)
			}
			if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
				i += 6
			}
		}
		return utf8.AppendRune(b, r), i, nil
	}
	d.off = i + 1
	return nil, 0, d.syntax("in string escape code")
}

// plainByte marks the bytes that stand for themselves inside a JSON
// string: ASCII from ' ' up, but '"' and '\\'.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// plainRun returns the end of the run of plain bytes that starts at i.
func (d *decodeState) plainRun(i int) int {
	for j, c := range d.data[i:] {
		if !plainByte[c] {
			return i + j
		}
	}
	return len(d.data)
}

// hex4 reads the four hex digits at data[i:], or returns -1.
func (d *decodeState) hex4(i int) rune {
	var r rune
	for j := i; j < i+4; j++ {
		c := d.at(j)
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// skip consumes and checks one value of any shape whose parent is at
// depth. It does not recurse: d.stack holds the kinds of the containers
// still open, at most maxDepth-depth of them.
func (d *decodeState) skip(depth int) error {
	d.stack = d.stack[:0]
	for {
		// A value starts at d.off.
		switch c := d.peek(); c {
		case '{', '[':
			if depth+len(d.stack)+1 > maxDepth {
				return d.errorf(d.off, "exceeded max depth")
			}
			d.off++
			d.ws()
			if d.peek() == c+2 { // '}' is '{'+2 and ']' is '['+2
				d.off++
				break
			}
			d.stack = append(d.stack, c)
			if c == '{' {
				if err := d.skipKey(); err != nil {
					return err
				}
			}
			continue
		case '"':
			if _, err := d.string(); err != nil {
				return err
			}
		case 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		default:
			if c != '-' && (c < '0' || c > '9') {
				return d.syntax("looking for beginning of value")
			}
			if _, err := d.number(); err != nil {
				return err
			}
		}
		// A value ended: close the containers it ends, up to the next
		// sibling value or the end of the skipped one.
		for {
			n := len(d.stack)
			if n == 0 {
				return nil
			}
			d.ws()
			open := d.stack[n-1]
			if c := d.peek(); c == ',' {
				d.off++
				d.ws()
				if open == '{' {
					if err := d.skipKey(); err != nil {
						return err
					}
				}
				break
			} else if c != open+2 {
				if open == '{' {
					return d.syntax("after object key:value pair")
				}
				return d.syntax("after array element")
			}
			d.off++
			d.stack = d.stack[:n-1]
		}
	}
}

// skipKey consumes an object key and the colon after it.
func (d *decodeState) skipKey() error {
	if d.peek() != '"' {
		return d.syntax("looking for beginning of object key string")
	}
	if _, err := d.string(); err != nil {
		return err
	}
	return d.colon()
}
