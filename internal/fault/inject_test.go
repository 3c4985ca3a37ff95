package fault

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/simkit"
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
