package raid

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/device"
	"repro/internal/simkit"
	"repro/internal/simkit/par"
	"repro/internal/trace"
)

// MemberFunc builds member i of a partitioned array on the given
// scheduler (one logical process of the partitioned engine).
type MemberFunc func(s simkit.Scheduler, i int) (device.Device, error)

// links is the partitioned coupling of an Array: the controller on
// LP 0 of a partitioned engine, member i on LP 1+i, and every
// controller↔member interaction moved over an explicit point-to-point
// link with real latency — the physical fact that also supplies the
// conservative lookahead letting the members simulate concurrently.
//
// The cost model per member operation:
//
//   - command/data outbound: the controller's link to the member is
//     FIFO-reserved; a write pays overhead plus the payload wire time,
//     a read command pays overhead only.
//   - completion inbound: the member's return link is FIFO-reserved;
//     a read's data pays overhead plus wire time, a write ack pays
//     overhead only.
//
// A request completes when the last member completion of its last
// phase arrives back at the controller, so array response times
// include link latency — the honest semantics of a distributed
// controller. Survivor reads and rebuild writes are ordinary cross-LP
// sends too, so the conservative windows and the (at, src LP, src seq)
// merge order make a degraded run exactly as deterministic as a
// healthy one.
type links struct {
	eng         *par.Engine
	ctrl        *par.LP
	spec        bus.LinkSpec
	sectorBytes int64

	// outBusy[i] is the FIFO reservation horizon of the controller→i
	// link; owned by the controller LP. retBusy[i] is the horizon of
	// the i→controller return link; owned by member i's LP. Distinct
	// elements are touched only by their owning LP, so window-parallel
	// execution never races on them.
	outBusy []float64
	retBusy []float64

	// free holds linkOp records back at the controller, for reuse; it
	// is controller state like outBusy.
	free []*linkOp
}

// linkOp is one member operation in flight over the links. The
// controller fills it and sends deliver to the member's LP; the member
// submits sub and, on completion, reserves the return link and sends
// ret back; ret puts the record on the controller's free list and runs
// onBack at the arrival time. The three callbacks are bound once, when
// the record is built, so a warm linked operation allocates nothing.
type linkOp struct {
	a      *Array
	op     Op
	sub    trace.Request
	onBack device.Done

	deliver    simkit.Event // lo.toMember, on the member LP
	memberDone device.Done  // lo.returnOp, on the member LP
	ret        simkit.Event // lo.toController, on the controller LP
}

// record takes a linkOp off the free list, or builds one.
func (l *links) record(a *Array) *linkOp {
	if n := len(l.free); n > 0 {
		lo := l.free[n-1]
		l.free = l.free[:n-1]
		return lo
	}
	lo := &linkOp{a: a}
	lo.deliver = lo.toMember
	lo.memberDone = lo.returnOp
	lo.ret = lo.toController
	return lo
}

// toMember submits the operation on the member's LP.
func (lo *linkOp) toMember() {
	lo.a.members[lo.op.Dev].Submit(lo.sub, lo.memberDone)
}

// returnOp reserves the member's return link for the completion (and a
// read's data) and sends the record back to the controller.
func (lo *linkOp) returnOp(at float64) {
	l := lo.a.links
	l.eng.LP(1+lo.op.Dev).Send(0, l.reserveReturn(lo.op, at), lo.ret)
}

// toController runs at the completion's arrival on the controller LP,
// whose clock is then the arrival time. The record goes back on the
// free list before onBack runs, so an onBack that issues again can
// reuse it: nothing reads the record after that point.
func (lo *linkOp) toController() {
	l := lo.a.links
	onBack := lo.onBack
	lo.onBack = nil
	l.free = append(l.free, lo)
	onBack(l.ctrl.Now())
}

// NewPartitioned builds an array on eng: the controller on LP 0 and
// one member per further LP, built by mk on its own logical process.
// The engine must have exactly 1+layout.Members() LPs. The link must
// have positive MinLatencyMs — that latency is the declared lookahead
// of every controller↔member channel, and a zero-lookahead channel
// admits no conservative window (use NewArray for zero-latency
// coupling). Submit, FailMember and Rebuild must then be called from
// controller-LP events.
func NewPartitioned(eng *par.Engine, layout Layout, link bus.LinkSpec, sectorBytes int64, mk MemberFunc) (*Array, error) {
	if layout == nil {
		return nil, fmt.Errorf("raid: nil layout")
	}
	if err := link.Validate(); err != nil {
		return nil, err
	}
	if link.MinLatencyMs() <= 0 {
		return nil, fmt.Errorf("raid: partitioned array link needs positive min latency for lookahead, got %v",
			link.MinLatencyMs())
	}
	if sectorBytes <= 0 {
		return nil, fmt.Errorf("raid: sector size %d must be positive", sectorBytes)
	}
	n := layout.Members()
	if eng.NumLPs() != n+1 {
		return nil, fmt.Errorf("raid: partitioned %s wants %d LPs (controller + %d members), engine has %d",
			layout.Name(), n+1, n, eng.NumLPs())
	}
	members := make([]device.Device, n)
	for i := range members {
		eng.Link(0, 1+i, link.MinLatencyMs())
		eng.Link(1+i, 0, link.MinLatencyMs())
		m, err := mk(eng.LP(1+i), i)
		if err != nil {
			return nil, err
		}
		members[i] = m
	}
	a, err := NewArray(layout, members)
	if err != nil {
		return nil, err
	}
	a.links = &links{
		eng:         eng,
		ctrl:        eng.LP(0),
		spec:        link,
		sectorBytes: sectorBytes,
		outBusy:     make([]float64, n),
		retBusy:     make([]float64, n),
	}
	return a, nil
}

// reserveOut reserves the controller→member link for the op's outbound
// message (FIFO behind earlier reservations) and returns its arrival
// time. A write ships its payload; a read ships only the command.
func (l *links) reserveOut(op Op) float64 {
	start := l.ctrl.Now()
	if l.outBusy[op.Dev] > start {
		start = l.outBusy[op.Dev]
	}
	cost := l.spec.OverheadMs
	if !op.Read {
		cost += l.spec.TransferMs(int64(op.Sectors) * l.sectorBytes)
	}
	arrive := start + cost
	l.outBusy[op.Dev] = arrive
	return arrive
}

// reserveReturn reserves the member→controller link for the op's
// completion message, starting no earlier than the member-completion
// time at. A read ships its data back; a write ships only the ack.
func (l *links) reserveReturn(op Op, at float64) float64 {
	start := at
	if l.retBusy[op.Dev] > start {
		start = l.retBusy[op.Dev]
	}
	cost := l.spec.OverheadMs
	if op.Read {
		cost += l.spec.TransferMs(int64(op.Sectors) * l.sectorBytes)
	}
	back := start + cost
	//idplint:allow lpconfine retBusy[i] is only ever touched from member i's completion events, so the per-member elements partition the slice and no two LPs share one
	l.retBusy[op.Dev] = back
	return back
}
