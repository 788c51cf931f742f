package session

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"d2x/internal/d2x/d2xc"
	"d2x/internal/d2x/d2xenc"
	"d2x/internal/minic"
	"d2x/internal/obs"
)

func TestStateLifecycle(t *testing.T) {
	s := New()
	vm1 := &minic.VM{}
	vm2 := &minic.VM{}

	if _, ok := s.Lookup(vm1); ok {
		t.Error("Lookup before State created")
	}
	st1 := s.State(vm1)
	if st1.NextID != 1 {
		t.Errorf("fresh state NextID = %d, want 1", st1.NextID)
	}
	if got := s.State(vm1); got != st1 {
		t.Error("State is not stable per VM")
	}
	st2 := s.State(vm2)
	if st2 == st1 {
		t.Error("distinct VMs share a state")
	}
	if n := s.Sessions(); n != 2 {
		t.Errorf("Sessions = %d, want 2", n)
	}

	st1.XBPs = append(st1.XBPs, &XBreakpoint{ID: 2, File: "a.dsl", Line: 1})
	st2.XBPs = append(st2.XBPs, &XBreakpoint{ID: 1, File: "b.dsl", Line: 2})
	all := s.AllBreakpoints()
	if len(all) != 2 || all[0].ID != 1 || all[1].ID != 2 {
		t.Errorf("AllBreakpoints = %+v", all)
	}

	s.Release(vm1)
	s.Release(vm1) // idempotent
	if n := s.Sessions(); n != 1 {
		t.Errorf("Sessions after Release = %d, want 1", n)
	}
	if _, ok := s.Lookup(vm1); ok {
		t.Error("Lookup after Release")
	}
	if _, ok := s.Lookup(vm2); !ok {
		t.Error("Release evicted the wrong session")
	}
}

func TestTablesFailureNotCached(t *testing.T) {
	s := New()
	prog, err := minic.Compile("p.c", "func int main() { return 0; }", nil)
	if err != nil {
		t.Fatal(err)
	}
	vm := minic.NewVM(prog, nil)
	// This program carries no tables: the decode fails, and the failure
	// must not be cached as a decode.
	if _, err := s.Tables(vm); err == nil || !strings.Contains(err.Error(), "no D2X tables") {
		t.Fatalf("Tables on table-less program: %v", err)
	}
	if n := s.Decodes(); n != 0 {
		t.Errorf("Decodes after failure = %d, want 0", n)
	}
}

// TestMetricsReflectLifecycle asserts that state creation and eviction
// are visible in the obs layer: the satellite requirement that "eviction
// is reflected in the metrics". The registry is process-wide, so the
// test works in deltas.
func TestMetricsReflectLifecycle(t *testing.T) {
	creates := obs.GetCounter("session.state.creates")
	evicts := obs.GetCounter("session.state.evicts")
	live := obs.GetGauge("session.live")
	c0, e0, l0 := creates.Value(), evicts.Value(), live.Value()

	s := New()
	vm1, vm2 := &minic.VM{}, &minic.VM{}
	st1 := s.State(vm1)
	s.State(vm2)
	if d := creates.Value() - c0; d != 2 {
		t.Errorf("creates delta = %d, want 2", d)
	}
	if d := live.Value() - l0; d != 2 {
		t.Errorf("live delta = %d, want 2", d)
	}
	if st1.ID == 0 {
		t.Error("session ID not assigned")
	}

	s.Release(vm1)
	s.Release(vm1) // idempotent: second release must not double-count
	if d := evicts.Value() - e0; d != 1 {
		t.Errorf("evicts delta = %d, want 1", d)
	}
	if d := live.Value() - l0; d != 1 {
		t.Errorf("live delta after evict = %d, want 1", d)
	}
	s.Release(vm2)
	if d := live.Value() - l0; d != 0 {
		t.Errorf("live delta after full drain = %d, want 0", d)
	}
	if d := evicts.Value() - e0; d != 2 {
		t.Errorf("evicts delta after full drain = %d, want 2", d)
	}
}

// tablesVM compiles a program that carries one small D2X table section
// and runs it so the table constructors have executed — the minimal
// debuggee Service.Tables can decode from.
func tablesVM(t *testing.T) *minic.VM {
	t.Helper()
	ctx := d2xc.NewContext()
	if err := ctx.BeginSectionAt(5); err != nil {
		t.Fatal(err)
	}
	ctx.PushSourceLoc("a.dsl", 1, "f")
	ctx.SetVar("sched", "push")
	ctx.Nextl() // line 5
	ctx.PushSourceLoc("a.dsl", 2, "f")
	ctx.Nextl() // line 6
	if err := ctx.EndSection(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := d2xenc.EmitTables(ctx, &b); err != nil {
		t.Fatal(err)
	}
	b.WriteString("func int main() { return 0; }\n")
	prog, err := minic.Compile("tables.c", b.String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	vm := minic.NewVM(prog, nil)
	if err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	return vm
}

// TestShardSpread: the pointer hash must actually spread states across
// shards — a degenerate hash would put every session behind one lock and
// silently reintroduce the global-mutex bottleneck.
func TestShardSpread(t *testing.T) {
	s := New()
	vms := make([]*minic.VM, 1024)
	for i := range vms {
		vms[i] = &minic.VM{}
		s.State(vms[i])
	}
	if n := s.Sessions(); n != len(vms) {
		t.Fatalf("Sessions = %d, want %d", n, len(vms))
	}
	occupied := 0
	most := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n := len(sh.states)
		sh.mu.Unlock()
		if n > 0 {
			occupied++
		}
		if n > most {
			most = n
		}
	}
	if occupied < ShardCount/2 {
		t.Errorf("1024 sessions landed on only %d/%d shards", occupied, ShardCount)
	}
	if most > len(vms)/4 {
		t.Errorf("one shard holds %d of %d sessions; hash is degenerate", most, len(vms))
	}
}

// TestConcurrentFirstDecode: 8 goroutines, each a session with its own
// VM of the same build, race the first table decode of a fresh service
// and then hammer the shared-decode and state paths. Exactly one decode
// may run, and every decode any goroutine observes must be that one,
// complete and equal to a reference decode — a torn publish would differ
// (and trip the race detector). Each State is touched only by its own
// goroutine, the single command stream the State contract allows.
func TestConcurrentFirstDecode(t *testing.T) {
	const goroutines = 8
	const rounds = 20
	const iters = 50
	vms := make([]*minic.VM, goroutines)
	for g := range vms {
		vms[g] = tablesVM(t)
	}
	ref, err := d2xenc.Decode(vms[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Records) == 0 {
		t.Fatal("fixture decoded no records")
	}

	for round := 0; round < rounds; round++ {
		s := New()
		var (
			wg       sync.WaitGroup
			start    = make(chan struct{})
			errs     = make(chan error, goroutines)
			observed = make([]*d2xenc.Tables, goroutines)
		)
		for g, vm := range vms {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < iters; i++ {
					tb, err := s.Tables(vm)
					if err != nil {
						errs <- err
						return
					}
					if observed[g] == nil {
						observed[g] = tb
					}
					if tb != observed[g] || !reflect.DeepEqual(tb.Records, ref.Records) {
						errs <- errTornDecode
						return
					}
					st := s.State(vm)
					st.LastRIP = int64(i)
					st.HaveRIP = true
					if _, ok := s.Lookup(vm); !ok {
						errs <- errLostState
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		for g, tb := range observed {
			if tb != observed[0] {
				t.Fatalf("round %d: goroutine %d saw a different decode than goroutine 0", round, g)
			}
		}
		if n := s.Decodes(); n != 1 {
			t.Fatalf("round %d: Decodes = %d, want exactly 1", round, n)
		}
	}
}

var (
	errTornDecode = &decodeErr{"observed a torn or stale table decode"}
	errLostState  = &decodeErr{"Lookup lost a live session state"}
)

type decodeErr struct{ msg string }

func (e *decodeErr) Error() string { return e.msg }

func TestStateConcurrent(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vm := &minic.VM{}
			st := s.State(vm)
			st.CmdActive = true
			st.XBPs = append(st.XBPs, &XBreakpoint{ID: 1})
			if _, ok := s.Lookup(vm); !ok {
				t.Error("Lookup missed own state")
			}
			s.Release(vm)
		}()
	}
	wg.Wait()
	if n := s.Sessions(); n != 0 {
		t.Errorf("Sessions after concurrent churn = %d, want 0", n)
	}
}
