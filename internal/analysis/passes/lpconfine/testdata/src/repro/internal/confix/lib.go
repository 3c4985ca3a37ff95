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

// Bump is sent as a method value straight to a member LP (see
// conapp.BadMethodValue): it runs there, so its write is flagged.
func (c *Ctl) Bump() {
	c.Done++ // want "controller-owned"
}

// Member is a device on a member LP. Its Submit is a dynamic callee,
// like device.Device.Submit, so it runs a callback where it is called.
type Member interface {
	Submit(done func(float64))
}

// Rec is a pooled in-flight record in the mold of raid's linkOp: its
// callbacks are method values bound once, when the record is built,
// and every event it arms loads one from a field. Holding the
// controller makes its own fields controller-owned too.
type Rec struct {
	C    *Ctl
	M    Member
	Dev  int
	Seen int

	arrive func()        // r.atMember
	note   func()        // r.noteMember
	done   func(float64) // r.complete
	back   func()        // r.atController
}

// NewRec builds a record and binds its callbacks.
func NewRec(c *Ctl, m Member, dev int) *Rec {
	r := &Rec{C: c, M: m, Dev: dev}
	r.arrive = r.atMember
	r.note = r.noteMember
	r.done = r.complete
	r.back = r.atController
	return r
}

// Issue sends the record to its member LP through a field load.
func (r *Rec) Issue() {
	ctl := r.C.Eng.LP(0)
	ctl.Send(r.Dev+1, ctl.Now()+1, r.arrive)
}

// atMember runs on the member LP: Issue's Send loads it from a field.
// It calls another bound callback and hands a third to a dynamic
// Submit, both in member context.
func (r *Rec) atMember() {
	r.C.Busy[r.Dev] = 1 // want "controller-owned"
	r.note()
	r.M.Submit(r.done)
}

// noteMember runs where atMember calls its field: on the member LP.
func (r *Rec) noteMember() {
	r.Seen++ // want "controller-owned"
}

// complete runs where Submit's callee invokes it: on the member LP.
// Sending the record home is fine; writing the controller is not.
func (r *Rec) complete(at float64) {
	r.C.Done++ // want "controller-owned"
	m := r.C.Eng.LP(r.Dev + 1)
	m.Send(0, at+1, r.back)
}

// atController runs on LP 0 (complete's Send(0, ...) loads it), which
// owns the state it writes.
func (r *Rec) atController() {
	r.C.Done++
	r.Seen = 0
}
