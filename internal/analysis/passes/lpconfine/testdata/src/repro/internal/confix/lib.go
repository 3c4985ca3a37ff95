// Package confix is the lpconfine fixture library: a controller
// aggregate in the mold of raid.Array's linked coupling — controller
// state on LP 0, one member device per LP 1+i — plus the helper shapes
// the analyzer must trace interprocedurally.
package confix

import "repro/internal/simkit/par"

// Ctl is a controller aggregate: holding the engine marks every field
// as controller-owned state for the ownership check.
type Ctl struct {
	Eng  *par.Engine
	Done int
	Busy []float64
}

// Arr holds its engine only through a pointer to Ctl — the raid.Array
// shape, whose engine sits in its *links coupling — so its fields are
// controller-owned too.
type Arr struct {
	C     *Ctl
	Count int
}

// Note is reached from a member-LP event (see conapp.BadThroughArr).
func (a *Arr) Note() {
	a.Count++ // want "controller-owned"
}

// Finish is reached through a call chain from a member-LP event (see
// conapp.BadThroughHelper) — the reserveReturn shape. The write is
// flagged here, in the function that performs it, not at the call.
func (c *Ctl) Finish(i int) {
	c.Done++ // want "controller-owned"
	_ = i
}

// Stamp is the same helper shape reached only from controller events:
// no member context ever flows in, so the field write is fine.
func (c *Ctl) Stamp(at float64) {
	c.Busy[0] = at
}

// IssueOp mirrors raid's issueOp: it arms a member event, but invokes
// onBack only inside a Send back to LP 0 — so callbacks handed to it
// run in controller context and may write controller state freely.
func (c *Ctl) IssueOp(dev int, onBack func()) {
	lp := c.Eng.LP(dev + 1)
	c.Eng.LP(0).Send(dev+1, c.Eng.LP(0).Now()+1, func() {
		lp.Send(0, lp.Now()+1, func() { onBack() })
	})
}
