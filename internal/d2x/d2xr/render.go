package d2xr

import (
	"strconv"
	"sync"

	"d2x/internal/srcloc"
)

// renderBuf is a reusable byte buffer for command output. Every D2X
// command renders into one of these with append-style formatting and
// hands the debuggee's output writer a single Write — no fmt verbs, no
// intermediate strings, no per-command heap allocation. Buffers are
// pooled (not per-session) so any number of concurrent sessions share a
// small working set without coordination beyond sync.Pool's.
type renderBuf struct {
	b []byte
}

// renderBufMaxRetain caps the capacity a buffer may carry back into the
// pool. A one-off giant listing must not pin its backing array forever.
const renderBufMaxRetain = 1 << 16

var renderPool = sync.Pool{
	New: func() any { return &renderBuf{b: make([]byte, 0, 512)} },
}

//d2x:noalloc
func getRender() *renderBuf {
	rb := renderPool.Get().(*renderBuf)
	rb.b = rb.b[:0]
	return rb
}

//d2x:noalloc
func putRender(rb *renderBuf) {
	if cap(rb.b) > renderBufMaxRetain {
		return
	}
	renderPool.Put(rb)
}

// appendXFrame renders one extended-stack frame line, the exact bytes
// the fmt-based renderer in the examplebuilds differential tests
// produces: "#i in F at file:line" (the function part omitted when
// empty).
//
//d2x:noalloc amortized
func appendXFrame(b []byte, i int, loc srcloc.Loc) []byte {
	b = append(b, '#')
	b = strconv.AppendInt(b, int64(i), 10)
	b = append(b, ' ')
	if loc.Function != "" {
		b = append(b, "in "...)
		b = append(b, loc.Function...)
		b = append(b, ' ')
	}
	b = append(b, "at "...)
	b = append(b, loc.File...)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(loc.Line), 10)
	return b
}

// appendIntPadded renders n left-justified in a field of the given
// width, space-padded on the right — fmt's %-4d for the xlist gutter.
//
//d2x:noalloc amortized
func appendIntPadded(b []byte, n int64, width int) []byte {
	start := len(b)
	b = strconv.AppendInt(b, n, 10)
	for len(b)-start < width {
		b = append(b, ' ')
	}
	return b
}
