package session

import (
	"testing"

	"d2x/internal/minic"
)

// fakeJournal stands in for the execution journal: the registry only
// ever moves the handle and calls Stop and Active through small
// interfaces.
type fakeJournal struct{ stopped bool }

func (f *fakeJournal) Stop()        { f.stopped = true }
func (f *fakeJournal) Active() bool { return !f.stopped }

// sameShardVMs returns n VMs that all hash to one shard of s, so the
// per-shard FIFO bound applies across them.
func sameShardVMs(s *Service, n int) []*minic.VM {
	target := s.shardFor(&minic.VM{})
	var vms []*minic.VM
	for len(vms) < n {
		vm := &minic.VM{}
		if s.shardFor(vm) == target {
			vms = append(vms, vm)
		}
	}
	return vms
}

// TestJournalSurvivesEviction: a session starts recording, its debugger
// closes (Release evicts the state), and a new session attaches to the
// same VM — the recording must come back live, not stopped.
func TestJournalSurvivesEviction(t *testing.T) {
	s := New()
	vm := &minic.VM{}
	j := &fakeJournal{}
	s.State(vm).Journal = j
	s.Release(vm)
	if j.stopped {
		t.Fatal("parking a recording must not stop it")
	}

	st2 := s.State(vm)
	if st2.Journal != j {
		t.Fatalf("recording lost across eviction: got %v", st2.Journal)
	}
	// The handle moved — it is not also still parked, so a later
	// eviction of some other VM cannot stop this live recording.
	s.Release(vm)
	if j.stopped {
		t.Fatal("re-parking after restore stopped the recording")
	}
	if got := s.State(vm).Journal; got != j {
		t.Fatalf("second round trip lost the recording: got %v", got)
	}
}

// TestJournalMemoryIsBounded: parked recordings hold real history, so
// the per-shard memory is small and FIFO — and a recording that falls
// off the end is stopped, freeing its snapshots, not leaked.
func TestJournalMemoryIsBounded(t *testing.T) {
	s := New()
	vms := sameShardVMs(s, maxJournalMemory+1)
	jours := make([]*fakeJournal, len(vms))
	for i, vm := range vms {
		jours[i] = &fakeJournal{}
		s.State(vm).Journal = jours[i]
		s.Release(vm)
	}
	if !jours[0].stopped {
		t.Error("oldest parked recording survived past the FIFO bound")
	}
	for i := 1; i < len(jours); i++ {
		if jours[i].stopped {
			t.Errorf("recording %d stopped while within the bound", i)
		}
	}
	if s.State(vms[0]).Journal != nil {
		t.Error("evicted recording handle resurfaced")
	}
	if s.State(vms[1]).Journal != jours[1] {
		t.Error("bounded memory lost a recording it should have kept")
	}
}

// TestReleaseDropsStoppedJournal: `record stop` leaves the stopped
// handle on the session state, and a stopped journal still holds its
// VM. Release must drop it rather than park it: stopped journals must
// neither come back to a new session on the same VM nor push a live
// parked recording off the per-shard FIFO.
func TestReleaseDropsStoppedJournal(t *testing.T) {
	s := New()
	vms := sameShardVMs(s, maxJournalMemory+1)
	live := &fakeJournal{}
	s.State(vms[0]).Journal = live
	s.Release(vms[0])
	for _, vm := range vms[1:] {
		s.State(vm).Journal = &fakeJournal{stopped: true}
		s.Release(vm)
	}
	if live.stopped {
		t.Error("releasing stopped recordings evicted and stopped a live parked one")
	}
	for i, vm := range vms[1:] {
		if j := s.State(vm).Journal; j != nil {
			t.Errorf("stopped recording %d came back from State: %v", i+1, j)
		}
	}
	if s.State(vms[0]).Journal != live {
		t.Error("live parked recording lost")
	}
}

// TestResetStopsJournal: build invalidation tears the recording down
// with the rest of the build-scoped state — its history indexes the old
// build's instruction stream.
func TestResetStopsJournal(t *testing.T) {
	st := &State{NextID: 1}
	j := &fakeJournal{}
	st.Journal = j
	st.Reset()
	if !j.stopped {
		t.Error("Reset left the recording running against a dead build")
	}
	if st.Journal != nil {
		t.Error("Reset kept the stale journal handle")
	}
}

// TestInvalidateStopsParkedJournals: recordings parked by Release are
// build-scoped too; Invalidate must stop and drop them, not just the
// live ones.
func TestInvalidateStopsParkedJournals(t *testing.T) {
	s := New()
	vm := &minic.VM{}
	j := &fakeJournal{}
	s.State(vm).Journal = j
	s.Release(vm)

	s.Invalidate()
	if !j.stopped {
		t.Error("Invalidate left a parked recording of the old build running")
	}
	if got := s.State(vm).Journal; got != nil {
		t.Errorf("stale recording handed to a post-invalidate session: %v", got)
	}
}
