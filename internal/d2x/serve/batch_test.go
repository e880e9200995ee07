package serve

import (
	"net"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"d2x/internal/d2x"
	"d2x/internal/d2x/wire"
	"d2x/internal/examplebuilds"
	"d2x/internal/progen"
)

// startServerWith is startServer with a custom build catalogue.
func startServerWith(t *testing.T, fn BuildFunc) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewWithBuilds(fn)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return ln.Addr().String()
}

func TestBatchBeforeLaunchRejected(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	_, err := c.DoBatch([]wire.SubRequest{{Command: wire.CmdXBT}})
	if err == nil || !strings.Contains(err.Error(), "no session") {
		t.Fatalf("batch before launch: got %v, want a no-session error", err)
	}
}

func TestBatchEmptyRejected(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	mustDo(t, c, wire.CmdLaunch, &wire.Args{Example: "power"})
	for _, args := range []*wire.Args{nil, {}} {
		if _, err := c.Do(wire.CmdBatch, args); err == nil || !strings.Contains(err.Error(), "at least one sub-command") {
			t.Fatalf("empty batch (%+v): got %v, want an empty-batch error", args, err)
		}
	}
	// A rejected batch is a normal command error: the connection and its
	// session survive it.
	mustDo(t, c, wire.CmdBreak, &wire.Args{Spec: "power_15"})
}

// TestBatchPartialFailure: a failing sub-command (2 of 3) is isolated to
// its own SubResult; sub-commands 1 and 3 still execute and succeed.
func TestBatchPartialFailure(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	mustDo(t, c, wire.CmdLaunch, &wire.Args{Example: "power"})
	mustDo(t, c, wire.CmdBreak, &wire.Args{Spec: "power_15"})
	mustDo(t, c, wire.CmdRun, nil)
	c.Events()

	results, err := c.DoBatch([]wire.SubRequest{
		{Command: wire.CmdXBT},
		{Command: wire.CmdXDel, Arguments: &wire.Args{Spec: "99"}},
		{Command: wire.CmdXVars},
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if !results[0].Success || !strings.Contains(results[0].Output, "examplebuilds.go") {
		t.Errorf("sub 1 (xbt): %+v, want success with staging frames", results[0])
	}
	if results[1].Success || !strings.Contains(results[1].Message, "no DSL breakpoint #99") {
		t.Errorf("sub 2 (xdel 99): %+v, want an isolated failure", results[1])
	}
	if !results[2].Success {
		t.Errorf("sub 3 (xvars) did not survive sub 2's failure: %+v", results[2])
	}
}

// TestBatchRejectsNonBatchableSubCommands: session- and connection-scoped
// commands cannot ride inside a batch; each is rejected in its own
// SubResult while the batchable neighbours still run.
func TestBatchRejectsNonBatchableSubCommands(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	mustDo(t, c, wire.CmdLaunch, &wire.Args{Example: "power"})
	mustDo(t, c, wire.CmdBreak, &wire.Args{Spec: "power_15"})
	mustDo(t, c, wire.CmdRun, nil)
	c.Events()

	results, err := c.DoBatch([]wire.SubRequest{
		{Command: wire.CmdLaunch, Arguments: &wire.Args{Example: "power"}},
		{Command: wire.CmdDisconnect},
		{Command: wire.CmdBatch},
		{Command: wire.CmdStats},
		{Command: "make-coffee"},
		{Command: wire.CmdXBT},
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	for i := 0; i < 4; i++ {
		if results[i].Success || !strings.Contains(results[i].Message, "not batchable") {
			t.Errorf("sub %d: %+v, want a not-batchable rejection", i+1, results[i])
		}
	}
	if results[4].Success || !strings.Contains(results[4].Message, "unknown command") {
		t.Errorf("sub 5: %+v, want an unknown-command rejection", results[4])
	}
	if !results[5].Success || !strings.Contains(results[5].Output, "examplebuilds.go") {
		t.Errorf("sub 6 (xbt): %+v, want success after the rejected subs", results[5])
	}
	// The rejected launch/disconnect subs must not have touched the
	// connection's session.
	mustDo(t, c, wire.CmdXList, nil)
}

// TestBatchOversizedRejectedClientSide: the encoder refuses to put a
// frame over MaxFrameBytes on the wire, and because nothing was sent the
// connection stays usable.
func TestBatchOversizedRejectedClientSide(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)
	mustDo(t, c, wire.CmdLaunch, &wire.Args{Example: "power"})

	big := strings.Repeat("x", wire.MaxFrameBytes)
	_, err := c.DoBatch([]wire.SubRequest{{Command: wire.CmdXBreak, Arguments: &wire.Args{Spec: big}}})
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized batch: got %v, want a frame-limit error", err)
	}
	mustDo(t, c, wire.CmdBreak, &wire.Args{Spec: "power_15"})
}

// TestBatchOversizedRejectedServerSide: a peer that streams a request
// line past MaxFrameBytes gets its connection dropped, and the server
// keeps serving everyone else.
func TestBatchOversizedRejectedServerSide(t *testing.T) {
	_, addr := startServer(t)

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer raw.Close()
	chunk := make([]byte, 1<<20)
	for i := range chunk {
		chunk[i] = 'a'
	}
	for written := 0; written <= wire.MaxFrameBytes; written += len(chunk) {
		if _, err := raw.Write(chunk); err != nil {
			break // server already reset the connection — that is the point
		}
	}
	raw.Write([]byte("\n"))
	raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 1)
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("server answered an oversized frame instead of dropping the connection")
	}

	c := dial(t, addr)
	mustDo(t, c, wire.CmdLaunch, &wire.Args{Example: "quickstart"})
}

// TestBatchMatchesSequentialDifferential is the wire-level correctness
// pin for the batch frame: over every example build plus a progen corpus
// slice, a batch of sub-commands must produce byte-identical outputs —
// and identical failures — to the same commands sent one frame each.
// Both paths share execOne on the server; this proves the sharing holds
// end to end, per-build and per-command.
func TestBatchMatchesSequentialDifferential(t *testing.T) {
	const progenSlice = 3
	addr := startServerWith(t, func(name string) (*d2x.Build, error) {
		if idx, ok := strings.CutPrefix(name, "progen-"); ok {
			i, err := strconv.Atoi(idx)
			if err != nil {
				return nil, err
			}
			p, err := progen.Render(progen.Generate(42, i))
			if err != nil {
				return nil, err
			}
			return p.Build(false)
		}
		return examplebuilds.Build(name)
	})

	names := append([]string{}, examplebuilds.Names()...)
	for i := 0; i < progenSlice; i++ {
		names = append(names, "progen-"+strconv.Itoa(i))
	}

	// A mixed steady-state sequence: frame-bearing queries, breakpoint
	// install/list/delete (bare-line specs resolve against the paused DSL
	// context on every build), and guaranteed failures — which must fail
	// identically on both paths.
	subs := []wire.SubRequest{
		{Command: wire.CmdXBT},
		{Command: wire.CmdXList},
		{Command: wire.CmdXVars},
		{Command: wire.CmdXFrame, Arguments: &wire.Args{Spec: "0"}},
		{Command: wire.CmdXBreak, Arguments: &wire.Args{Spec: "3"}},
		{Command: wire.CmdXBreak, Arguments: &wire.Args{Spec: "4"}},
		{Command: wire.CmdXBT},
		{Command: wire.CmdXDel, Arguments: &wire.Args{Spec: "1"}},
		{Command: wire.CmdXDel, Arguments: &wire.Args{Spec: "99"}},
		{Command: wire.CmdXVars, Arguments: &wire.Args{Name: "no_such_var"}},
	}

	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			setup := func(c *wire.Client) {
				mustDo(t, c, wire.CmdLaunch, &wire.Args{Example: name})
				mustDo(t, c, wire.CmdBreak, &wire.Args{Spec: breakSpecFor(name)})
				mustDo(t, c, wire.CmdRun, nil)
				c.Events()
			}
			seqC, batC := dial(t, addr), dial(t, addr)
			setup(seqC)
			setup(batC)

			single := make([]wire.SubResult, len(subs))
			for i, sub := range subs {
				f, err := seqC.Do(sub.Command, sub.Arguments)
				if err != nil {
					if _, ok := err.(*wire.RemoteError); !ok {
						t.Fatalf("sequential %s: %v", sub.Command, err)
					}
					single[i] = wire.SubResult{Message: f.Message}
					continue
				}
				single[i] = wire.SubResult{Success: true, Output: f.Body.Output}
			}

			batch, err := batC.DoBatch(subs)
			if err != nil {
				t.Fatalf("batch: %v", err)
			}
			for i := range subs {
				if batch[i] != single[i] {
					t.Errorf("sub %d (%s %+v) diverged:\nsequential: %+v\nbatch:      %+v",
						i+1, subs[i].Command, subs[i].Arguments, single[i], batch[i])
				}
			}
		})
	}
}

// TestWireBatchAmortisesRoundTrips is the throughput gate for the batch
// frame: one cycle of the interactive mix — xbt/xvars three times, then
// an xbreak at the paused DSL line and its xdel — sent as one batch
// frame must run at least twice as fast as the same 8 commands sent as
// standalone requests. Both sides run the same execOne path on the
// server, so the ratio is the per-request transport and dispatch cost
// the frame amortises. Standalone and batch rounds alternate, so drift on
// a shared host hits both sides alike.
func TestWireBatchAmortisesRoundTrips(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime slows command execution more than transport, so the ratio does not hold under -race")
	}
	const (
		rounds     = 7
		cycles     = 50
		minSpeedup = 2.0
	)
	_, addr := startServer(t)
	c := dial(t, addr)
	mustDo(t, c, wire.CmdLaunch, &wire.Args{Example: "power"})
	mustDo(t, c, wire.CmdBreak, &wire.Args{Spec: "power_15"})
	mustDo(t, c, wire.CmdRun, nil)
	c.Events()

	// The paused frame's DSL line: the first xbt line ends in file:line.
	xbt := mustDo(t, c, wire.CmdXBT, nil).Body.Output
	frame0, _, _ := strings.Cut(xbt, "\n")
	i := strings.LastIndexByte(frame0, ':')
	line, err := strconv.Atoi(frame0[i+1:])
	if i < 0 || err != nil {
		t.Fatalf("no DSL line in xbt frame 0 %q", frame0)
	}
	frameSuffix := frame0[i:] + "\n"

	// Every xbreak takes the next DSL breakpoint ID and the cycle's xdel
	// removes it again, so a round's requests, IDs included, are built
	// before any of its cycles is timed, and its outputs are checked after
	// the round.
	nextID := 1
	plan := func() [][]wire.SubRequest {
		p := make([][]wire.SubRequest, cycles)
		for n := range p {
			for j := 0; j < 3; j++ {
				p[n] = append(p[n], wire.SubRequest{Command: wire.CmdXBT}, wire.SubRequest{Command: wire.CmdXVars})
			}
			p[n] = append(p[n],
				wire.SubRequest{Command: wire.CmdXBreak, Arguments: &wire.Args{Spec: strconv.Itoa(line)}},
				wire.SubRequest{Command: wire.CmdXDel, Arguments: &wire.Args{Spec: strconv.Itoa(nextID)}})
			nextID++
		}
		return p
	}
	check := func(p [][]wire.SubRequest, outs []string) {
		t.Helper()
		for n, subs := range p {
			id := subs[len(subs)-1].Arguments.Spec
			for j, sub := range subs {
				var want string
				switch sub.Command {
				case wire.CmdXBT:
					want = frameSuffix
				case wire.CmdXBreak:
					want = "with ID: #" + id + "\n"
				case wire.CmdXDel:
					want = "Deleted DSL breakpoint #" + id + " "
				}
				if out := outs[n*len(subs)+j]; !strings.Contains(out, want) {
					t.Fatalf("%s %+v: output %q lacks %q", sub.Command, sub.Arguments, out, want)
				}
			}
		}
	}

	// Each cycle is timed on its own and the gate compares median cycle
	// times. On a loaded host a whole round's best still swings with how
	// the client and server goroutines share the CPUs; the median of
	// hundreds of interleaved cycles does not.
	var seqCycles, batchCycles []time.Duration
	outs := make([]string, 0, cycles*8)
	standalone := func() {
		p := plan()
		outs = outs[:0]
		for _, subs := range p {
			start := time.Now()
			for _, sub := range subs {
				f, err := c.Do(sub.Command, sub.Arguments)
				if err != nil {
					t.Fatalf("standalone %s: %v", sub.Command, err)
				}
				outs = append(outs, f.Body.Output)
			}
			seqCycles = append(seqCycles, time.Since(start))
		}
		check(p, outs)
	}
	batched := func() {
		p := plan()
		outs = outs[:0]
		for _, subs := range p {
			start := time.Now()
			results, err := c.DoBatch(subs)
			if err != nil {
				t.Fatalf("batch: %v", err)
			}
			for j, res := range results {
				if !res.Success {
					t.Fatalf("batch sub %d (%s): %s", j+1, subs[j].Command, res.Message)
				}
				outs = append(outs, res.Output)
			}
			batchCycles = append(batchCycles, time.Since(start))
		}
		check(p, outs)
	}

	for r := 0; r < rounds; r++ {
		standalone()
		batched()
	}
	median := func(d []time.Duration) time.Duration {
		slices.Sort(d)
		return d[len(d)/2]
	}
	seq, batch := median(seqCycles), median(batchCycles)
	speedup := float64(seq) / float64(batch)
	t.Logf("median cycle over %d rounds x %d cycles: standalone %v, batch %v, speedup %.2fx", rounds, cycles, seq, batch, speedup)
	if speedup < minSpeedup {
		t.Errorf("wire batch is only %.2fx standalone requests, want >= %.1fx", speedup, minSpeedup)
	}
}
