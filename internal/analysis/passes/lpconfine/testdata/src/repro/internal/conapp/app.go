// Package conapp holds the lpconfine fixture call sites: events armed
// on member LPs that touch controller-owned state — directly, through
// captures, and through call chains — next to the Send-mediated
// versions the ownership discipline prescribes.
package conapp

import (
	"repro/internal/confix"
	"repro/internal/simkit/par"
)

var total int

// BadDirect writes a controller-owned field from a member-LP event:
// under window parallelism this races the controller's own writes.
func BadDirect(c *confix.Ctl) {
	c.Eng.LP(0).Send(1, c.Eng.LP(0).Now()+1, func() {
		c.Done++ // want "controller-owned"
	})
}

// BadCaptured writes a captured controller-scope local from a member
// event — the runPhase-counter mistake.
func BadCaptured(c *confix.Ctl) {
	pending := 0
	c.Eng.LP(0).Send(1, c.Eng.LP(0).Now()+1, func() {
		pending-- // want "declared in controller-LP scope"
	})
	_ = pending
}

// BadGlobal writes package state from a member event.
func BadGlobal(c *confix.Ctl) {
	c.Eng.LP(0).Send(2, c.Eng.LP(0).Now()+1, func() {
		total++ // want "package-level"
	})
}

// BadThroughHelper reaches the controller-owned write through a call
// chain: the member context flows into confix.Finish, where the write
// is flagged (see the want in lib.go).
func BadThroughHelper(c *confix.Ctl) {
	c.Eng.LP(2).Send(1, c.Eng.LP(2).Now()+1, func() {
		c.Finish(1)
	})
}

// BadThroughArr reaches a write to an aggregate that holds its engine
// only through another aggregate.
func BadThroughArr(a *confix.Arr) {
	a.C.Eng.LP(0).Send(1, a.C.Eng.LP(0).Now()+1, func() {
		a.Note()
	})
}

// GoodSend routes the completion back to LP 0: the write happens in an
// event armed on the controller LP, which owns the state. This is the
// PR-8 degraded-mode pattern — member completion, controller update.
func GoodSend(c *confix.Ctl) {
	m := c.Eng.LP(1)
	c.Eng.LP(0).Send(1, c.Eng.LP(0).Now()+1, func() {
		held := 0 // a member event's own state is its to write
		held++
		m.Send(0, m.Now()+1, func() {
			c.Done++
		})
		_ = held
	})
}

// GoodChain hands IssueOp a callback that writes controller state and
// a captured counter: IssueOp fires it inside Send(0, ...), so the
// callback is controller context — the issueOp/runPhase pattern.
func GoodChain(c *confix.Ctl) {
	outstanding := 0
	c.IssueOp(0, func() {
		outstanding--
		c.Done++
	})
	_ = outstanding
}

// GoodController is plain controller code: named functions run on the
// driver or LP 0, so aggregate writes are unremarkable.
func GoodController(c *confix.Ctl) {
	c.Done = 0
	c.Stamp(3)
	lp := c.Eng.LP(0)
	_ = lp
	_ = par.Options{}
}

// BadMethodValue sends a method value to a member LP: Ctl.Bump runs
// there (its write is flagged in lib.go).
func BadMethodValue(c *confix.Ctl) {
	c.Eng.LP(0).Send(1, c.Eng.LP(0).Now()+1, c.Bump)
}

// BadRecord issues a pooled record whose member-side callbacks write
// controller state (flagged in lib.go's Rec methods).
func BadRecord(c *confix.Ctl, m confix.Member) {
	confix.NewRec(c, m, 0).Issue()
}
