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

// TestInvalidateResetsStates covers the re-attach bugfix: replacing the
// build must reset each session's frame selection, rip memory and DSL
// breakpoints while keeping the State objects (and their identities and
// fuel budgets) alive.
func TestInvalidateResetsStates(t *testing.T) {
	s := New()
	vm := &minic.VM{}
	st := s.State(vm)
	st.SelXFrame = 3
	st.LastRIP = 0x77
	st.HaveRIP = true
	st.CmdActive = true
	st.CurRSP = 9
	st.FuelBudget = 123
	st.XBPs = append(st.XBPs, &XBreakpoint{ID: 1, File: "a.dsl", Line: 4, GenLines: []int{10}})
	st.NextID = 2
	id := st.ID

	s.Invalidate()

	if got := s.State(vm); got != st {
		t.Fatal("Invalidate replaced the State object")
	}
	if st.SelXFrame != 0 || st.LastRIP != 0 || st.HaveRIP || st.CmdActive || st.CurRSP != 0 {
		t.Errorf("stale frame state survived: %+v", st)
	}
	if len(st.XBPs) != 0 || st.NextID != 1 {
		t.Errorf("stale breakpoints survived: %+v NextID=%d", st.XBPs, st.NextID)
	}
	if st.ID != id {
		t.Errorf("session ID changed across Invalidate: %d -> %d", id, st.ID)
	}
	if st.FuelBudget != 123 {
		t.Errorf("fuel budget lost across Invalidate: %d", st.FuelBudget)
	}
}

// TestInvalidateDropsSharedTables: after Invalidate the next Tables call
// must re-decode (miss), not serve the stale build's decode.
func TestInvalidateDropsSharedTables(t *testing.T) {
	s := New()
	prog, err := minic.Compile("p.c", "func int main() { return 0; }", nil)
	if err != nil {
		t.Fatal(err)
	}
	vm := minic.NewVM(prog, nil)
	if _, err := s.Tables(vm); err == nil {
		t.Fatal("decode unexpectedly succeeded on a table-less program")
	}
	s.Invalidate()
	if s.tables.Load() != nil {
		t.Error("tables survived Invalidate")
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

// TestCheckoutPinsStateAcrossInvalidate is the deterministic half of the
// eviction/invalidate race fix: while a command holds a state via
// Checkout, Invalidate must not reset it in place; the reset lands at
// Checkin, after the command's view is no longer live.
func TestCheckoutPinsStateAcrossInvalidate(t *testing.T) {
	s := New()
	vm := &minic.VM{}
	st := s.Checkout(vm)
	st.SelXFrame = 3
	st.XBPs = append(st.XBPs, &XBreakpoint{ID: 1, File: "a.dsl", Line: 4})
	st.NextID = 2
	st.FuelBudget = 99

	s.Invalidate()

	// The in-flight command's view is intact.
	if st.SelXFrame != 3 || len(st.XBPs) != 1 || st.NextID != 2 {
		t.Fatalf("Invalidate reset a checked-out state: %+v", st)
	}

	s.Checkin(vm, st)

	// The deferred reset applied once the last pin dropped.
	if st.SelXFrame != 0 || len(st.XBPs) != 0 || st.NextID != 1 {
		t.Fatalf("deferred reset not applied at Checkin: %+v", st)
	}
	if st.FuelBudget != 99 {
		t.Errorf("fuel budget lost across deferred reset: %d", st.FuelBudget)
	}

	// A nested pin (refcount 2) defers until the outer Checkin.
	st = s.Checkout(vm)
	inner := s.Checkout(vm)
	if inner != st {
		t.Fatal("nested Checkout returned a different state")
	}
	st.NextID = 7
	s.Invalidate()
	s.Checkin(vm, inner)
	if st.NextID != 7 {
		t.Fatal("reset applied while an outer pin was still held")
	}
	s.Checkin(vm, st)
	if st.NextID != 1 {
		t.Fatal("reset not applied after the outer Checkin")
	}
}

// TestInvalidateRaceWithInFlightCommand provokes the old interleaving —
// Invalidate calling Reset() on a state another goroutine is mid-command
// on — under the race detector. With the pre-refcount registry this was
// a write/write race on State fields; with Checkout/Checkin the reset is
// deferred and the test is race-clean.
func TestInvalidateRaceWithInFlightCommand(t *testing.T) {
	s := New()
	vm := &minic.VM{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := s.Checkout(vm)
			// Touch exactly the fields Reset tears down, the way a
			// command body does.
			st.SelXFrame++
			st.LastRIP = int64(st.SelXFrame)
			st.HaveRIP = true
			st.XBPs = append(st.XBPs[:0], &XBreakpoint{ID: st.NextID})
			st.NextID++
			s.Checkin(vm, st)
		}
	}()
	for i := 0; i < 2000; i++ {
		s.Invalidate()
	}
	close(stop)
	wg.Wait()
}

// TestFuelBudgetSurvivesEviction is the regression test for the
// fuel-budget loss: a session sets an override, its debugger closes
// (Release evicts the state), and a new session attaches to the same VM
// — the override must survive the state re-creation.
func TestFuelBudgetSurvivesEviction(t *testing.T) {
	s := New()
	vm := &minic.VM{}
	st := s.State(vm)
	st.FuelBudget = 4242
	s.Release(vm)

	st2 := s.State(vm)
	if st2 == st {
		t.Fatal("Release did not evict the state object")
	}
	if st2.FuelBudget != 4242 {
		t.Errorf("fuel budget lost across eviction: got %d, want 4242", st2.FuelBudget)
	}

	// The default (no override) stays the default across eviction.
	vm2 := &minic.VM{}
	s.State(vm2)
	s.Release(vm2)
	if got := s.State(vm2).FuelBudget; got != 0 {
		t.Errorf("zero fuel budget turned into an override: %d", got)
	}
}

// TestReleaseDoesNotDisturbCheckedOutState: eviction while a command is
// in flight removes the registry entry (new sessions get fresh state)
// but never resets the pinned object the in-flight command holds.
func TestReleaseDoesNotDisturbCheckedOutState(t *testing.T) {
	s := New()
	vm := &minic.VM{}
	st := s.Checkout(vm)
	st.XBPs = append(st.XBPs, &XBreakpoint{ID: 1})
	st.FuelBudget = 7

	s.Release(vm)
	if len(st.XBPs) != 1 {
		t.Fatal("Release tore down a checked-out state")
	}
	st2 := s.State(vm)
	if st2 == st {
		t.Fatal("evicted state was handed to a new session")
	}
	if st2.FuelBudget != 7 {
		t.Errorf("fuel budget not inherited by the new session: %d", st2.FuelBudget)
	}
	s.Checkin(vm, st) // must not panic or resurrect the mapping
	if got, ok := s.Lookup(vm); !ok || got != st2 {
		t.Error("Checkin of an evicted state disturbed the registry")
	}
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

// TestInvalidateConcurrentTablesLookup: 8 goroutines, each a session
// with its own VM of the same build, hammer the shared-decode and state
// paths while Invalidate repeatedly drops the published tables. Every
// decode any goroutine observes must be complete and equal to the
// reference decode — a torn publish would differ (and trip the race
// detector). Each State is touched only by its own goroutine, the
// single command stream the State contract allows.
func TestInvalidateConcurrentTablesLookup(t *testing.T) {
	s := New()
	const goroutines = 8
	const iters = 400
	vms := make([]*minic.VM, goroutines)
	for g := range vms {
		vms[g] = tablesVM(t)
	}

	ref, err := s.Tables(vms[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Records) == 0 {
		t.Fatal("fixture decoded no records")
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for _, vm := range vms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tb, err := s.Tables(vm)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(tb.Records, ref.Records) {
					errs <- errTornDecode
					return
				}
				st := s.Checkout(vm)
				st.LastRIP = int64(i)
				st.HaveRIP = true
				s.Checkin(vm, st)
				if _, ok := s.Lookup(vm); !ok {
					errs <- errLostState
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < iters; i++ {
			s.Invalidate()
		}
		close(done)
	}()
	wg.Wait()
	<-done
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The decode counter must reflect real re-decodes (every miss after
	// an Invalidate), never a cached failure.
	if s.Decodes() < 1 {
		t.Errorf("Decodes = %d, want >= 1", s.Decodes())
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
