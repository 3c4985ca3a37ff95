package disk

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/simkit"
	"repro/internal/trace"
)

// scanModel is smallModel with a seek curve proportionate to its
// reduced stroke, so seeks and rotations compete in the SPTF cost.
func scanModel() Model {
	m := smallModel()
	m.SingleCylMs = 0.5
	m.AvgSeekMs = 2.0
	m.FullStrokeMs = 4.0
	return m
}

// The reference dispatch: the exhaustive SPTF scan as it stood before
// the scan became branch-and-bound. Every (queued entry, idle arm) pair
// is costed in full with refPosCost, refBestArmFor keeps the lowest arm
// on ties, and the winner's seek and rotation are costed again for
// service.

func refArmTarget(d *Drive, armIdx, head int, loc geom.Loc) float64 {
	h := float64(head) / float64(len(d.extraHeads)+1)
	t := loc.Angle - d.arms[armIdx].alpha - h
	for t < 0 {
		t += 1
	}
	return t
}

func refPosCost(d *Drive, armIdx int, loc geom.Loc, now float64) (seekMs, rotMs float64) {
	seekMs = d.curve.Time(d.arms[armIdx].cyl-loc.Cyl) * d.seekScale
	atTrack := now + d.model.ControllerOverheadMs + seekMs
	rotMs = d.rot.LatencyTo(refArmTarget(d, armIdx, 0, loc), atTrack)
	for h := 1; h < len(d.extraHeads)+1; h++ {
		if r := d.rot.LatencyTo(refArmTarget(d, armIdx, h, loc), atTrack); r < rotMs {
			rotMs = r
		}
	}
	rotMs *= d.rotScale
	return seekMs, rotMs
}

func refBestArmFor(d *Drive, loc geom.Loc, now float64) (armIdx int, cost float64) {
	armIdx = -1
	for i := range d.arms {
		a := &d.arms[i]
		if a.failed || a.busy || a.assigned != nil {
			continue
		}
		seekMs, rotMs := refPosCost(d, i, loc, now)
		if c := seekMs + rotMs; armIdx == -1 || c < cost {
			armIdx, cost = i, c
		}
	}
	return armIdx, cost
}

// refDispatch is what the reference dispatchOne would start: the entry
// (by obsReq), the arm, and the service's seek and rotation. ok is
// false when nothing is dispatchable.
type refDispatch struct {
	ok            bool
	obsReq        uint64
	arm           int
	seekMs, rotMs float64
}

func refDecide(d *Drive, now float64) refDispatch {
	bestAssigned := -1
	var bestAssignedCost, bestAssignedRem, bestAssignedRot float64
	for i := range d.arms {
		a := &d.arms[i]
		if a.assigned == nil || a.busy || a.failed {
			continue
		}
		rem := a.seekDoneAt - now
		if rem < 0 {
			rem = 0
		}
		rot := d.rot.LatencyTo(refArmTarget(d, i, 0, a.assigned.loc), now+rem)
		for h := 1; h < len(d.extraHeads)+1; h++ {
			if r := d.rot.LatencyTo(refArmTarget(d, i, h, a.assigned.loc), now+rem); r < rot {
				rot = r
			}
		}
		rot *= d.rotScale
		if c := rem + rot; bestAssigned == -1 || c < bestAssignedCost {
			bestAssigned, bestAssignedCost = i, c
			bestAssignedRem, bestAssignedRot = rem, rot
		}
	}
	haveIdleArm := false
	for i := range d.arms {
		if !d.arms[i].failed && !d.arms[i].busy && d.arms[i].assigned == nil {
			haveIdleArm = true
		}
	}
	exhaustive := func(p *pending, _ float64) float64 {
		_, c := refBestArmFor(d, p.loc, now)
		return c
	}
	fromQueue := func(p pending) refDispatch {
		arm, _ := refBestArmFor(d, p.loc, now)
		seekMs, rotMs := refPosCost(d, arm, p.loc, now)
		return refDispatch{ok: true, obsReq: p.obsReq, arm: arm, seekMs: seekMs, rotMs: rotMs}
	}
	if haveIdleArm && d.queue.Len() > 0 {
		pk, _ := d.queue.Pick(now, exhaustive)
		if bestAssigned == -1 || pk.Cost <= bestAssignedCost {
			return fromQueue(pk.Item)
		}
	}
	if bestAssigned != -1 {
		return refDispatch{ok: true, obsReq: d.arms[bestAssigned].assigned.obsReq,
			arm: bestAssigned, seekMs: bestAssignedRem, rotMs: bestAssignedRot}
	}
	if haveIdleArm && d.bgQueue.Len() > 0 {
		pk, _ := d.bgQueue.Pick(now, exhaustive)
		return fromQueue(pk.Item)
	}
	return refDispatch{}
}

// TestBoundedDispatchMatchesExhaustiveScan checks that the
// branch-and-bound dispatch makes exactly the reference's choices:
// on randomized drive states (1-8 arms, 1-3 heads per arm, failed,
// busy and pre-seek-assigned arms, seek/rotation scales including
// ZeroedScale, queues up to 300 deep past the 128-entry scan window,
// age-forced fronts, background work, and duplicate LBAs so that costs
// tie) the bounded queue Pick must name the same entry at the same
// cost, plan the same arm, seek and rotation, and dispatchOne must
// start that service — all compared bit for bit.
func TestBoundedDispatchMatchesExhaustiveScan(t *testing.T) {
	scales := []float64{0, 0.5, 2, ZeroedScale}
	rng := rand.New(rand.NewSource(20260415))
	for c := 0; c < 1500; c++ {
		var svc struct {
			n             int
			seekMs, rotMs float64
		}
		cfg := Options{
			Actuators:      1 + rng.Intn(8),
			HeadsPerArm:    1 + rng.Intn(3),
			SeekScale:      scales[rng.Intn(len(scales))],
			RotScale:       scales[rng.Intn(len(scales))],
			MultiArmMotion: rng.Intn(2) == 0,
			OnService: func(seekMs, rotMs, _ float64) {
				svc.n++
				svc.seekMs, svc.rotMs = seekMs, rotMs
			},
		}
		eng := simkit.New()
		now := rng.Float64() * 1e5
		eng.RunUntil(now)
		d, err := New(eng, scanModel(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		capacity := d.Capacity() - 64
		// A small LBA pool makes duplicate requests, whose costs tie.
		pool := make([]int64, 1+rng.Intn(20))
		for i := range pool {
			pool[i] = rng.Int63n(capacity)
		}
		obsReq := uint64(0)
		newPending := func() pending {
			lba := rng.Int63n(capacity)
			if rng.Intn(2) == 0 {
				lba = pool[rng.Intn(len(pool))]
			}
			obsReq++
			return pending{req: trace.Request{LBA: lba, Sectors: 8}, loc: d.geo.Locate(lba), obsReq: obsReq}
		}
		for i := range d.arms {
			a := &d.arms[i]
			a.cyl = rng.Intn(d.geo.Cylinders())
			if rng.Intn(4) == 0 {
				a.cyl = d.arms[rng.Intn(len(d.arms))].cyl // arms sharing a cylinder
			}
			switch k := rng.Intn(10); {
			case k == 0:
				a.failed = true
			case k == 1:
				a.busy = true
			case k < 4 && cfg.MultiArmMotion:
				p := newPending()
				a.assigned = &p
				a.seekDoneAt = now + (rng.Float64()*7 - 2)
			}
		}
		// The drive keeps its idle and assigned arm counts as it goes;
		// recount them for the states set above.
		d.idleArms, d.assignedArms = 0, 0
		for i := range d.arms {
			if d.arms[i].idle() {
				d.idleArms++
			}
			if d.arms[i].assigned != nil {
				d.assignedArms++
			}
		}
		// Arrivals spread over the last 700 ms, so the 500 ms age cap
		// forces some fronts.
		depth := rng.Intn(301)
		at := now - rng.Float64()*700
		for i := 0; i < depth; i++ {
			at += rng.Float64() * (now - at) / float64(depth-i)
			d.queue.Push(newPending(), at)
		}
		if rng.Intn(4) == 0 {
			for i := rng.Intn(20); i >= 0; i-- {
				p := newPending()
				p.background = true
				d.bgQueue.Push(p, now-rng.Float64()*700)
			}
		}

		want := refDecide(d, now)

		// The bounded scan alone: same entry, same cost, same plan.
		haveIdleArm := false
		for i := range d.arms {
			if !d.arms[i].failed && !d.arms[i].busy && d.arms[i].assigned == nil {
				haveIdleArm = true
			}
		}
		if haveIdleArm && d.queue.Len() > 0 {
			d.costStart = now + d.model.ControllerOverheadMs
			d.plan.arm = -1
			got, _ := d.queue.Pick(now, d.queueCost)
			ref, _ := d.queue.Pick(now, func(p *pending, _ float64) float64 {
				_, c := refBestArmFor(d, p.loc, now)
				return c
			})
			arm, _ := refBestArmFor(d, ref.Item.loc, now)
			seekMs, rotMs := refPosCost(d, arm, ref.Item.loc, now)
			if got.Item.obsReq != ref.Item.obsReq ||
				math.Float64bits(got.Cost) != math.Float64bits(ref.Cost) ||
				d.plan.arm != arm ||
				math.Float64bits(d.plan.seekMs) != math.Float64bits(seekMs) ||
				math.Float64bits(d.plan.rotMs) != math.Float64bits(rotMs) {
				t.Fatalf("case %d (%+v, depth %d): bounded pick entry %d cost %v plan %+v; "+
					"exhaustive entry %d cost %v arm %d seek %v rot %v",
					c, cfg, depth, got.Item.obsReq, got.Cost, d.plan,
					ref.Item.obsReq, ref.Cost, arm, seekMs, rotMs)
			}
		}

		// The whole dispatch: it must start the reference's service.
		busy := make([]bool, len(d.arms))
		for i := range d.arms {
			busy[i] = d.arms[i].busy
		}
		if ok := d.dispatchOne(); ok != want.ok {
			t.Fatalf("case %d: dispatchOne = %v, reference %v", c, ok, want.ok)
		}
		if !want.ok {
			continue
		}
		started := -1
		for i := range d.arms {
			if d.arms[i].busy && !busy[i] {
				started = i
			}
		}
		if started != want.arm || d.arms[started].inService.obsReq != want.obsReq || svc.n != 1 ||
			math.Float64bits(svc.seekMs) != math.Float64bits(want.seekMs) ||
			math.Float64bits(svc.rotMs) != math.Float64bits(want.rotMs) {
			t.Fatalf("case %d (%+v, depth %d): started entry %d on arm %d, seek %v rot %v; "+
				"reference entry %d on arm %d, seek %v rot %v",
				c, cfg, depth, d.arms[max(started, 0)].inService.obsReq, started, svc.seekMs, svc.rotMs,
				want.obsReq, want.arm, want.seekMs, want.rotMs)
		}
	}
}
