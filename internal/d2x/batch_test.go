package d2x

import (
	"strings"
	"testing"

	"d2x/internal/d2x/d2xr"
)

// TestPinSessionDefersInvalidateAcrossBatch: the wire server wraps a
// whole batch in PinSession, so a build re-attach (Invalidate) that
// lands mid-batch must not reset the session until the pin drops —
// including across the nested Checkout/Checkin pair every native
// command takes under the pin.
func TestPinSessionDefersInvalidateAcrossBatch(t *testing.T) {
	b := buildPower(t, true)
	d, out := session(t, b)
	exec(t, d, "break power_gen.c:5", "run", "xbreak power.dsl:6")
	rt := b.Runtime
	vm := d.Process().VM
	st := rt.StateFor(vm)
	if len(st.XBPs) != 1 {
		t.Fatalf("setup: %d DSL breakpoints, want 1", len(st.XBPs))
	}

	pin := rt.PinSession(vm)
	if rt.StateFor(vm) != st {
		t.Fatalf("PinSession pinned a different state object")
	}
	// Re-attaching the same debug blob is how a rebuild lands: it
	// invalidates the shared tables and resets every session — except
	// pinned ones, whose reset is deferred.
	if err := rt.AttachDebugInfo(b.DebugBlob); err != nil {
		t.Fatalf("re-attach: %v", err)
	}
	if len(st.XBPs) != 1 {
		t.Error("Invalidate reset a pinned session mid-batch")
	}

	// A native command under the pin nests its own Checkout/Checkin; the
	// inner Checkin must not apply the deferred reset while the outer pin
	// holds.
	out.Reset()
	exec(t, d, "xbreak")
	if !strings.Contains(out.String(), "power.dsl:6") {
		t.Errorf("pinned session lost its breakpoint from the batch's view: %q", out.String())
	}
	if len(st.XBPs) != 1 {
		t.Error("nested Checkin applied the deferred reset before the pin dropped")
	}

	pin.Unpin()
	if len(st.XBPs) != 0 {
		t.Error("deferred reset not applied when the pin dropped")
	}

	// The zero pin is a no-op, so a pin can be stored unconditionally.
	var zero d2xr.SessionPin
	zero.Unpin()
}
