package fault

import (
	"strings"
	"testing"

	"repro/internal/defect"
	"repro/internal/obs"
	"repro/internal/simkit"
	"repro/internal/simkit/par"
)

// preflightArray is a Rebuilder that also answers the construction-time
// CanFailMember preflight, like raid.Array does.
type preflightArray struct {
	fakeArray
	preflightErr error
}

func (p *preflightArray) CanFailMember(int) error { return p.preflightErr }

// TestInjectorPreflightsMemberDeath pins the satellite contract: a plan
// whose member death the bound array would reject (no redundancy,
// member out of range) must fail NewInjector with an error naming the
// binding, instead of surfacing later as runtime refusal counts.
func TestInjectorPreflightsMemberDeath(t *testing.T) {
	eng := simkit.New()
	plan, err := Compile(Spec{
		Death: &Death{AtMs: 10, Member: 2, RebuildAtMs: 20, ChunkSectors: 64, Depth: 2},
	}, 7)
	if err != nil {
		t.Fatal(err)
	}

	bad := &preflightArray{fakeArray: fakeArray{eng: eng}, preflightErr: errIntentional}
	_, err = NewInjector(eng, plan, Targets{Array: bad}, obs.Options{})
	if err == nil {
		t.Fatalf("injector accepted a death the array preflight rejects")
	}
	if !strings.Contains(err.Error(), "Targets.Array") {
		t.Fatalf("preflight error %q does not name the Targets.Array binding", err)
	}
	if !strings.Contains(err.Error(), errIntentional.Error()) {
		t.Fatalf("preflight error %q hides the array's reason", err)
	}

	good := &preflightArray{fakeArray: fakeArray{eng: eng}}
	if _, err := NewInjector(eng, plan, Targets{Array: good}, obs.Options{}); err != nil {
		t.Fatalf("injector rejected a death the array accepts: %v", err)
	}

	// An array without the preflight surface keeps the old behavior:
	// construction succeeds, refusals stay a runtime matter.
	if _, err := NewInjector(eng, plan, Targets{Array: &fakeArray{eng: eng}}, obs.Options{}); err != nil {
		t.Fatalf("injector rejected a non-preflighting array: %v", err)
	}
}

// TestInjectorAppliesSectorErrorsOnDefectsLP exercises the cross-LP
// defect binding: with DefectsOn set, sector errors are armed on the
// defect table's own logical process, their spans land on DefectsSink,
// and the injector's quiescent-time merge reports them alongside the
// controller-LP counters.
func TestInjectorAppliesSectorErrorsOnDefectsLP(t *testing.T) {
	pe := par.New(2, par.Options{Workers: 1})
	dt, err := defect.NewTable(1<<16+64, 64)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(Spec{
		SectorErrors: SectorErrors{Count: 8, StartMs: 1, EndMs: 100, UserSectors: 1 << 16},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	sink := &obs.MemorySink{}
	inj, err := NewInjector(pe.LP(0), plan, Targets{
		Defects:     dt,
		DefectsOn:   pe.LP(1),
		DefectsSink: pe.LP(1).WrapSink(sink),
	}, obs.Options{Sink: pe.LP(0).WrapSink(sink)})
	if err != nil {
		t.Fatal(err)
	}
	inj.Schedule()
	pe.Run()

	if inj.Injected()+inj.Refused() != 8 {
		t.Fatalf("injected %d + refused %d, want 8 total", inj.Injected(), inj.Refused())
	}
	if inj.Injected() == 0 {
		t.Fatalf("no sector errors landed")
	}
	if dt.Reallocated() != inj.Injected() {
		t.Fatalf("defect table grew %d, injector reports %d", dt.Reallocated(), inj.Injected())
	}
	snap := inj.Snapshot()
	if snap.Counters["sector_errors"] != inj.Injected() {
		t.Fatalf("snapshot sector_errors %d, want %d", snap.Counters["sector_errors"], inj.Injected())
	}
	if snap.Counters["refused"] != inj.Refused() {
		t.Fatalf("snapshot refused %d, want %d", snap.Counters["refused"], inj.Refused())
	}
	var faults int
	for _, ev := range sink.Events() {
		if ev.Phase == obs.PhaseFault {
			faults++
		}
	}
	if uint64(faults) != inj.Injected() {
		t.Fatalf("%d fault spans for %d injections", faults, inj.Injected())
	}
}
