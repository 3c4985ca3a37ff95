package raid

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/trace"
)

// Array is a storage array: a layout over a set of member devices.
// It implements device.Device, so arrays nest (an array of intra-disk
// parallel drives is exactly the paper's §7.3 system).
//
// The array's coupling decides how an operation reaches its member,
// and nothing else. NewArray couples by direct calls: the members
// share the controller's event loop and an operation costs no link
// time. NewPartitioned places the controller and each member on its
// own logical process of a partitioned engine and moves every
// operation over a link with real latency (see links); direct calls
// are the zero-latency limit of that model. Planning, degraded
// rewrites, rebuild and snapshots are one code path for both.
type Array struct {
	layout  Layout
	members []device.Device
	links   *links // nil: direct calls

	// Controller state. Under the linked coupling it lives on the
	// controller LP: the members never learn they are "failed" — the
	// controller just stops routing to them and rewrites plans.
	failed        []bool
	submitted     uint64
	completed     uint64
	reconstructed uint64

	// free holds finished request records for reuse, so a steady
	// stream of requests plans and completes without allocating.
	free []*request
}

// request is one array request in flight: its plan, the degraded
// rewrite of the current phase, and the phase loop's state. The
// member-completion callback is built once, when the record is, and
// every op of every phase reports through it. Records are controller
// state and return to the array's free list when the request finishes.
type request struct {
	a        *Array
	plan     Plan
	degraded []Op // scratch for degradedOps
	phase    int
	// outstanding counts the current phase's ops not yet back.
	outstanding int
	// lastDone is the latest member-completion time seen so far, so
	// the request's completion time is correct even when a later
	// phase's ops are all dropped by failure handling.
	lastDone float64
	done     device.Done
	opDone   device.Done // q.finishOp, bound once
}

var (
	_ device.Device       = (*Array)(nil)
	_ device.Instrumented = (*Array)(nil)
)

// NewArray binds a layout to its member devices. Every member must be at
// least as large as the layout expects; the layout's member count must
// match.
func NewArray(layout Layout, members []device.Device) (*Array, error) {
	if layout == nil {
		return nil, fmt.Errorf("raid: nil layout")
	}
	if len(members) != layout.Members() {
		return nil, fmt.Errorf("raid: %s wants %d members, got %d",
			layout.Name(), layout.Members(), len(members))
	}
	for i, m := range members {
		if m == nil {
			return nil, fmt.Errorf("raid: member %d is nil", i)
		}
	}
	return &Array{layout: layout, members: members, failed: make([]bool, len(members))}, nil
}

// CanFailMember reports whether FailMember(i) would currently be
// accepted, without changing any state: the member index exists, is
// not already failed, the layout carries redundancy, and no other
// member is down (single-failure model). fault.NewInjector calls it at
// construction time so a plan aimed at an array that cannot degrade
// (a redundancy-free layout, an out-of-range member) fails fast with a
// clear error instead of surfacing as runtime refusal counts.
func (a *Array) CanFailMember(i int) error {
	if i < 0 || i >= len(a.failed) {
		return fmt.Errorf("raid: member %d out of range [0,%d)", i, len(a.failed))
	}
	if a.failed[i] {
		return fmt.Errorf("raid: member %d already failed", i)
	}
	if _, ok := a.layout.(Reconstructor); !ok {
		return fmt.Errorf("raid: %s has no redundancy to survive a member failure", a.layout.Name())
	}
	for j, f := range a.failed {
		if f && j != i {
			return fmt.Errorf("raid: member %d already failed; only single failures are supported", j)
		}
	}
	return nil
}

// FailMember takes one member disk out of service — the degraded-array
// mode. Reads that would touch it are reconstructed from the survivors
// (the layout must implement Reconstructor); writes to it are dropped,
// with redundancy carried by the plan's surviving writes. Operations
// already in flight finish normally. Only layouts with redundancy
// accept failures. On a linked array, call it from a controller-LP
// event.
func (a *Array) FailMember(i int) error {
	if err := a.CanFailMember(i); err != nil {
		return err
	}
	a.failed[i] = true
	return nil
}

// RepairMember returns a failed member to service without copying any
// data; Rebuild streams the contents back and then repairs the member
// itself.
func (a *Array) RepairMember(i int) error {
	if i < 0 || i >= len(a.members) {
		return fmt.Errorf("raid: member %d out of range [0,%d)", i, len(a.members))
	}
	if !a.failed[i] {
		return fmt.Errorf("raid: member %d is not failed", i)
	}
	a.failed[i] = false
	return nil
}

// Degraded reports whether any member is out of service.
func (a *Array) Degraded() bool {
	for _, f := range a.failed {
		if f {
			return true
		}
	}
	return false
}

// Reconstructed reports how many reads were served by reconstruction.
func (a *Array) Reconstructed() uint64 { return a.reconstructed }

// degradedOps appends to dst one phase's ops rewritten for the current
// failure state: reads aimed at a failed member expand into
// reconstruction reads, writes aimed at it are dropped (redundancy
// flows through the plan's surviving writes).
func (a *Array) degradedOps(dst, ops []Op) ([]Op, error) {
	for _, op := range ops {
		if !a.failed[op.Dev] {
			dst = append(dst, op)
			continue
		}
		if !op.Read {
			continue
		}
		var err error
		if dst, err = a.layout.(Reconstructor).Reconstruct(dst, op, op.Dev); err != nil {
			return dst, err
		}
		a.reconstructed++
	}
	return dst, nil
}

// Layout returns the array's layout.
func (a *Array) Layout() Layout { return a.layout }

// Capacity reports the array's logical size in sectors.
func (a *Array) Capacity() int64 { return a.layout.Capacity() }

// Completed reports how many array-level requests have finished.
func (a *Array) Completed() uint64 { return a.completed }

// Submitted reports how many array-level requests have been accepted.
func (a *Array) Submitted() uint64 { return a.submitted }

// Power sums the members' average-power breakdowns — the paper's array
// power bars are exactly this roll-up.
func (a *Array) Power(elapsedMs float64) power.Breakdown {
	var b power.Breakdown
	for _, m := range a.members {
		b = b.Add(m.Power(elapsedMs))
	}
	return b
}

// Submit expands the request through the layout and issues the member
// operations, phase by phase. The request completes when the last
// operation of the last phase completes. Requests outside the array's
// logical space, or with no sectors, panic, matching the drive models'
// contract. On a linked array, call it from a controller-LP event,
// which is where replay drivers attached to eng.LP(0) run.
func (a *Array) Submit(r trace.Request, done device.Done) {
	q := a.record()
	if err := a.layout.Plan(&q.plan, r); err != nil {
		panic(err)
	}
	a.submitted++
	q.phase, q.lastDone, q.done = 0, 0, done
	q.runPhase()
}

// record takes a request record off the free list, or builds one.
func (a *Array) record() *request {
	if n := len(a.free); n > 0 {
		q := a.free[n-1]
		a.free = a.free[:n-1]
		return q
	}
	q := &request{a: a}
	q.opDone = q.finishOp
	return q
}

// runPhase issues the current phase, skipping phases whose ops failure
// handling dropped entirely; finishOp brings it back for the next one.
// After the last phase the record returns to the free list before done
// runs, so a done that submits again can reuse it: nothing reads the
// record after that point.
func (q *request) runPhase() {
	a := q.a
	for ; q.phase < len(q.plan.Phases); q.phase++ {
		ops := q.plan.Phases[q.phase]
		if a.Degraded() {
			var err error
			if q.degraded, err = a.degradedOps(q.degraded[:0], ops); err != nil {
				panic(err)
			}
			ops = q.degraded
		}
		if len(ops) == 0 {
			continue
		}
		// A member that completes synchronously re-enters runPhase from
		// the last op's issueOp, which may rewrite q.degraded or reuse
		// q; the range has read its last op by then.
		q.outstanding = len(ops)
		for _, op := range ops {
			a.issueOp(op, q.opDone)
		}
		return
	}
	a.completed++
	done, lastDone := q.done, q.lastDone
	q.done = nil
	a.free = append(a.free, q)
	if done != nil {
		done(lastDone)
	}
}

// finishOp is the member-completion callback of every op of q.
func (q *request) finishOp(at float64) {
	if at > q.lastDone {
		q.lastDone = at
	}
	q.outstanding--
	if q.outstanding == 0 {
		q.phase++
		q.runPhase()
	}
}

// issueOp submits one operation to its member and runs onBack on the
// controller when the completion is back; it is the only place the
// couplings differ. Direct calls hand onBack to the member as is. The
// linked coupling takes a linkOp record off the controller's free list
// and sends it over the links (see linkOp). Foreground phases and
// rebuild traffic both go through issueOp, so they share the member
// queues and link reservations. It applies no degraded rewrite.
func (a *Array) issueOp(op Op, onBack device.Done) {
	sub := trace.Request{LBA: op.LBA, Sectors: op.Sectors, Read: op.Read}
	if a.links == nil {
		a.members[op.Dev].Submit(sub, onBack)
		return
	}
	l := a.links
	lo := l.record(a)
	lo.op, lo.sub, lo.onBack = op, sub, onBack
	l.ctrl.Send(1+op.Dev, l.reserveOut(op), lo.deliver)
}

// Snapshot reports the array's request counters with every instrumented
// member rolled up as a child, in member order. A linked array adds
// the "-partitioned" suffix and its engine's window counters.
func (a *Array) Snapshot() obs.Snapshot {
	s := obs.Snapshot{
		Device:     a.layout.Name(),
		Kind:       "raid",
		Submitted:  a.submitted,
		Completed:  a.completed,
		Counters:   map[string]uint64{"reconstructed": a.reconstructed},
		Gauges:     map[string]obs.GaugeValue{},
		Histograms: map[string]obs.Histogram{},
	}
	if a.links != nil {
		s.Device += "-partitioned"
		s.Counters["windows"] = a.links.eng.Windows()
		s.Counters["busy_lps"] = a.links.eng.BusyLPs()
	}
	failed := uint64(0)
	for i, m := range a.members {
		if a.failed[i] {
			failed++
		}
		if in, ok := m.(device.Instrumented); ok {
			s.Children = append(s.Children, in.Snapshot())
		}
	}
	s.Counters["failed_members"] = failed
	return s
}

// RouteByDisk is the MD system of the paper's limit study: requests carry
// the member-disk number they were traced against, and the "array" simply
// forwards each request to that disk. It implements device.Device.
type RouteByDisk struct {
	members []device.Device
}

var _ device.Device = (*RouteByDisk)(nil)

// NewRouteByDisk builds the pass-through router.
func NewRouteByDisk(members []device.Device) (*RouteByDisk, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("raid: RouteByDisk needs members")
	}
	for i, m := range members {
		if m == nil {
			return nil, fmt.Errorf("raid: member %d is nil", i)
		}
	}
	return &RouteByDisk{members: members}, nil
}

// Members reports the member count.
func (rt *RouteByDisk) Members() int { return len(rt.members) }

// Capacity reports the summed member capacity.
func (rt *RouteByDisk) Capacity() int64 {
	var total int64
	for _, m := range rt.members {
		total += m.Capacity()
	}
	return total
}

// Power sums the members' breakdowns.
func (rt *RouteByDisk) Power(elapsedMs float64) power.Breakdown {
	var b power.Breakdown
	for _, m := range rt.members {
		b = b.Add(m.Power(elapsedMs))
	}
	return b
}

// Snapshot rolls up every instrumented member as a child, in member
// order. The router adds no latency and keeps no counters of its own.
func (rt *RouteByDisk) Snapshot() obs.Snapshot {
	s := obs.Snapshot{
		Device:     "md",
		Kind:       "route-by-disk",
		Counters:   map[string]uint64{},
		Gauges:     map[string]obs.GaugeValue{},
		Histograms: map[string]obs.Histogram{},
	}
	for _, m := range rt.members {
		if in, ok := m.(device.Instrumented); ok {
			child := in.Snapshot()
			s.Submitted += child.Submitted
			s.Completed += child.Completed
			s.Children = append(s.Children, child)
		}
	}
	return s
}

var _ device.Instrumented = (*RouteByDisk)(nil)

// Submit forwards the request to the disk it names.
func (rt *RouteByDisk) Submit(r trace.Request, done device.Done) {
	if r.Disk < 0 || r.Disk >= len(rt.members) {
		panic(fmt.Sprintf("raid: request targets disk %d of %d", r.Disk, len(rt.members)))
	}
	sub := r
	sub.Disk = 0
	rt.members[r.Disk].Submit(sub, done)
}
