package dwarfish_test

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"d2x/internal/dwarfish"
	"d2x/internal/examplebuilds"
	"d2x/internal/minic"
)

// rejectedBlobs are inputs Decode must refuse: garbage, nothing, and a
// truncated real blob.
func rejectedBlobs(t testing.TB) [][]byte {
	prog, err := minic.Compile("gen.c", "func int main() {\n\tint x = 1;\n\treturn x;\n}\n", nil)
	if err != nil {
		t.Fatal(err)
	}
	blob := dwarfish.Build(prog).Encode()
	return [][]byte{[]byte("not a dwarfish blob"), nil, blob[:len(blob)/2]}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	for i, blob := range rejectedBlobs(t) {
		if _, err := dwarfish.Decode(blob); err == nil {
			t.Errorf("decode of blob %d (%q) succeeded", i, blob)
		}
	}
}

// boundsCase is a small blob whose counts or function index would make
// Decode allocate far more than its input, and the error that must
// reject it instead.
type boundsCase struct {
	blob []byte
	size int
	want string
}

// boundsCases: a count is checked against the bytes left in the blob
// before anything is allocated for it. The first two blobs carry counts
// under the per-table caps, so only the input-size bound keeps 12 bytes
// from allocating 96 MiB of functions, and 26 bytes 1.5 GiB of line
// entries, before failing on EOF. The last two give their one function
// an index past the function count: FuncIndex 1<<24 would size a 64 MiB
// index table, and 2^63-1 one too large to make.
func boundsCases() []boundsCase {
	str := func(b []byte, s string) []byte {
		return append(binary.AppendUvarint(b, uint64(len(s))), s...)
	}
	head := str(binary.AppendUvarint([]byte(dwarfish.Magic), dwarfish.Version), "a.c")
	oneFunc := func(funcIndex, lines uint64) []byte {
		b := binary.AppendUvarint(append([]byte(nil), head...), 1) // one function
		b = str(b, "main")
		b = binary.AppendUvarint(b, funcIndex)
		b = binary.AppendUvarint(b, 0) // DeclLine
		b = str(b, "a.c")
		b = binary.AppendUvarint(b, 0) // vars
		return binary.AppendUvarint(b, lines)
	}
	return []boundsCase{
		{binary.AppendUvarint(append([]byte(nil), head...), 1<<20), 12, "corrupt function count 1048576"},
		{oneFunc(0, 1<<26), 26, "corrupt line count 67108864"},
		{oneFunc(1<<24, 0), 26, "corrupt function index 16777216"},
		{oneFunc(1<<63-1, 0), 31, "corrupt function index 9223372036854775807"},
	}
}

// TestDecodeBoundsCountsByInput: each of boundsCases fails with its
// error and allocates under 1 MiB on the way.
func TestDecodeBoundsCountsByInput(t *testing.T) {
	for _, tc := range boundsCases() {
		if len(tc.blob) != tc.size {
			t.Errorf("blob is %d bytes, want %d", len(tc.blob), tc.size)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := dwarfish.Decode(tc.blob)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Decode(%d-byte blob) error = %v, want %q", len(tc.blob), err, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("Decode(%d-byte blob) allocated %d bytes", len(tc.blob), grew)
		}
	}
}

// decodeAllocPerByte bounds what Decode may allocate per input byte. A
// count may claim every byte left, and the widest element a count sizes,
// a FuncInfo, is 96 bytes; the interning map and the name and line
// indexes add less than that again per byte of a valid blob.
const decodeAllocPerByte = 256

// FuzzDecode: Decode never panics; whatever it accepts re-encodes to a
// blob that decodes to an equal Info and encodes to the same bytes; and
// it allocates at most decodeAllocPerByte per input byte, plus 64 KiB
// for its fixed-size state. Plain `go test` runs only the seeds: the
// examples' debug info and the blobs of the two tests above.
func FuzzDecode(f *testing.F) {
	for _, name := range examplebuilds.Names() {
		b, err := examplebuilds.Build(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b.Runtime.Info().Encode())
	}
	for _, blob := range rejectedBlobs(f) {
		f.Add(blob)
	}
	for _, tc := range boundsCases() {
		f.Add(tc.blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		info, err := dwarfish.Decode(data)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(decodeAllocPerByte*len(data)+64<<10); grew > limit {
			t.Fatalf("Decode(%d bytes) allocated %d bytes, limit %d", len(data), grew, limit)
		}
		if err != nil {
			return
		}
		blob := info.Encode()
		again, err := dwarfish.Decode(blob)
		if err != nil {
			t.Fatalf("re-encoded blob does not decode: %v", err)
		}
		if !reflect.DeepEqual(info, again) {
			t.Fatalf("re-encoded blob decodes differently:\nfirst:  %+v\nsecond: %+v", info, again)
		}
		if reblob := again.Encode(); !bytes.Equal(reblob, blob) {
			t.Fatalf("encoding is not stable:\nfirst:  %x\nsecond: %x", blob, reblob)
		}
	})
}
