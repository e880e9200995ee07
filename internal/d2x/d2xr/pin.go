package d2xr

import (
	"d2x/internal/d2x/session"
	"d2x/internal/minic"
)

// SessionPin holds one session's state checked out across a whole
// multi-command wire batch. Checkout/Checkin nest, so the per-command
// pins the command wrappers take simply stack on top of this one; while
// the pin is held, Invalidate defers the session's Reset and Release
// keeps the state object alive — the batch is atomic with respect to
// both.
type SessionPin struct {
	svc *session.Service
	vm  *minic.VM
	st  *session.State
}

// PinSession checks out vm's session state for a batch. Callers must
// call Unpin exactly once; the zero SessionPin unpins as a no-op, so a
// pin can be stored unconditionally.
//
//d2x:noalloc
func (r *Runtime) PinSession(vm *minic.VM) SessionPin {
	return SessionPin{svc: r.svc, vm: vm, st: r.svc.Checkout(vm)}
}

// Unpin releases the batch pin; the deferred Reset of an Invalidate
// that arrived mid-batch is applied here (by the last Checkin).
//
//d2x:noalloc
func (p SessionPin) Unpin() {
	if p.svc != nil {
		p.svc.Checkin(p.vm, p.st)
	}
}
