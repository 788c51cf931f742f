package session

import (
	"d2x/internal/d2x/d2xc"
	"d2x/internal/d2x/d2xenc"
	"d2x/internal/dwarfish"
	"d2x/internal/minic"
	"d2x/internal/obs"
)

// maxPC is the open upper bound of a function's final line range.
const maxPC = int(^uint(0) >> 1)

// fusedEntry maps one rip range [lo, hi) of a function directly to its
// full resolution: the generated line (stage 1) and the D2X context
// record for that line (stage 2). A genLine of 0 marks a range the
// debug info declares but does not map (LineOf reports line 0 there);
// rec is nil when the generated line has no D2X record.
type fusedEntry struct {
	lo, hi  int
	genLine int
	rec     *d2xc.Record
}

// Fused is the fused resolution index: the two-stage mapping of the
// paper — rip → generated line via standard debug info, generated line
// → DSL context via the D2X tables — joined at build time into one
// immutable per-function sorted range array, so resolving a frame is a
// single binary search instead of a line-table walk plus a table
// lookup. Like d2xenc.Tables, a Fused never changes after construction
// and is shared read-only by every session of the build.
//
//d2x:immutable
type Fused struct {
	// info is the debug info the index was built from. Consumers pass
	// their Info on lookup and the service compares identities, so an
	// index can never serve a session whose debug info was replaced.
	info    *dwarfish.Info
	genFile string
	// funcs is indexed by dwarfish FuncIndex; each entry list is sorted
	// by lo and non-overlapping.
	funcs [][]fusedEntry
}

// GenFile returns the generated source file name the index resolves
// into — interned, so render paths can hold it without copying.
func (fu *Fused) GenFile() string { return fu.genFile }

// Info returns the debug info identity the index was built from.
func (fu *Fused) Info() *dwarfish.Info { return fu.info }

// Resolve maps an encoded rip to (generated line, D2X record) in one
// binary search. ok is false exactly when the reference two-stage path
// would fail stage 1 (unknown function, or no line entry at or before
// the PC); rec is nil when stage 1 resolves but the generated line
// carries no D2X record, mirroring RecordForLine's miss.
//
//d2x:noalloc
func (fu *Fused) Resolve(rip int64) (genLine int, rec *d2xc.Record, ok bool) {
	a := dwarfish.DecodeAddr(rip)
	if a.FuncIndex < 0 || a.FuncIndex >= len(fu.funcs) {
		return 0, nil, false
	}
	entries := fu.funcs[a.FuncIndex]
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if entries[mid].lo <= a.PC {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0, nil, false // PC below the first line entry: stage-1 miss
	}
	e := &entries[lo-1]
	if a.PC >= e.hi || e.genLine <= 0 {
		return 0, nil, false
	}
	return e.genLine, e.rec, true
}

// buildFused joins the debug info's line ranges with the decoded D2X
// tables. Adjacent ranges with the same resolution are coalesced, so
// the arrays stay small and the binary search short.
//
//d2x:ctor Fused
func buildFused(info *dwarfish.Info, t *d2xenc.Tables) *Fused {
	fu := &Fused{info: info, genFile: info.File}
	info.VisitLineRanges(func(f *dwarfish.FuncInfo, lo, hi, line int) {
		for f.FuncIndex >= len(fu.funcs) {
			fu.funcs = append(fu.funcs, nil)
		}
		h := hi
		if h < 0 {
			h = maxPC
		}
		var rec *d2xc.Record
		if line > 0 {
			rec = t.RecordForLine(line)
		}
		entries := fu.funcs[f.FuncIndex]
		if n := len(entries); n > 0 && entries[n-1].hi == lo &&
			entries[n-1].genLine == line && entries[n-1].rec == rec {
			entries[n-1].hi = h
		} else {
			entries = append(entries, fusedEntry{lo: lo, hi: h, genLine: line, rec: rec})
		}
		fu.funcs[f.FuncIndex] = entries
	})
	return fu
}

// Fused returns the fused resolution index for the given debug info,
// building it from the shared tables on first use. The hit path — every
// call after the first, from every session — is one atomic load plus an
// identity compare: the index remembers the *dwarfish.Info it came from,
// so it can never serve a caller that passes different debug info.
//
//d2x:noalloc
func (s *Service) Fused(vm *minic.VM, info *dwarfish.Info) (*Fused, error) {
	if f := s.fused.Load(); f != nil && f.info == info {
		s.m.fusedHit.Inc()
		return f, nil
	}
	return s.buildFusedIndex(vm, info) //d2xvet:ignore noalloc miss path builds the index once per (build, info), off the steady state
}

// buildFusedIndex is the Fused miss path: build the index from the
// shared tables under decodeMu and publish it. Split from Fused so the
// hit path above stays within the //d2x:noalloc contract.
func (s *Service) buildFusedIndex(vm *minic.VM, info *dwarfish.Info) (*Fused, error) {
	s.m.fusedMiss.Inc()
	t, err := s.Tables(vm)
	if err != nil {
		return nil, err
	}
	s.decodeMu.Lock()
	defer s.decodeMu.Unlock()
	if f := s.fused.Load(); f != nil && f.info == info {
		// Another session built it while we waited for the lock.
		return f, nil
	}
	start := obs.Now()
	f := buildFused(info, t)
	s.m.fusedLat.Since(start)
	s.m.fusedBuilds.Inc()
	s.fused.Store(f)
	obs.Emit(obs.Event{Kind: "decode", Name: "fused-index", Detail: "fused rip index published"})
	return f, nil
}
