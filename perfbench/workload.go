package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"

	"d2x/internal/d2x/wire"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wQuery      = "query"
	wBurst      = "ide-burst"
	wSession    = "session"
	wTimetravel = "timetravel"
)

var workloadNames = []string{wQuery, wBurst, wSession, wTimetravel}

// Sweep sizes. A run replays whole sweeps, and every sweep of a workload
// holds the same multiset of op kinds and arguments whatever the seed,
// so two runs with different seeds see the same mix of op costs.
const (
	queryPairs     = 64 // query: xbt/xvars pairs per sweep
	burstBatches   = 16 // ide-burst: batches per sweep
	burstReadsEach = 5  // ide-burst: xbt, xframe, xlist and xvars sub-commands per batch, each
)

// queryExample and pagerankExample are the builds the single-connection
// workloads stay paused in: power at power_15 (paper Fig. 8) for query,
// and PageRankDelta at its UDF (paper Fig. 6), the deepest D2X context,
// for ide-burst. Timetravel records PageRankDelta too.
const (
	queryExample    = "power"
	pagerankExample = "pagerankdelta"
)

// examples lists every example build with the staged function a session
// breaks at and a fragment of the DSL frame xbt must print there.
var examples = []struct {
	name, breakSpec, dslFrame string
}{
	{"pagerankdelta", "updateEdge_1", "#0 in updateEdge at pagerankdelta.gt:11"},
	{"power", "power_15", "#0 in power at "},
	{"einsum", "m_v_mul", "einsum.go:"},
	{"quickstart", "sum_squares", "#0 in quickstart at "},
}

// pausedExample is the build a single-connection workload stays paused in.
func pausedExample(workload string) string {
	if workload == wBurst {
		return pagerankExample
	}
	return queryExample
}

func exampleByName(name string) (breakSpec, dslFrame string) {
	for _, e := range examples {
		if e.name == name {
			return e.breakSpec, e.dslFrame
		}
	}
	panic("perfbench: unknown example " + name)
}

// request is one wire request of an op plus the checks its response
// must pass.
type request struct {
	cmd  string
	args *wire.Args
	// want is a fragment the response output must contain ("" checks
	// success only).
	want string
	// subWant holds, for a batch, the fragment each sub-result must
	// contain; every sub-result must also succeed.
	subWant []string
	// stopped marks an execution request: a "stopped" event with reason
	// "breakpoint" must arrive before its response.
	stopped bool
	// launch marks a launch request: its response carries a session ID.
	launch bool
}

// wireOp is one op of a wire workload. A session op opens a connection
// of its own; the others run on the workload's one paused connection.
type wireOp struct {
	ownConn bool
	reqs    []request
}

// sweeper yields a wire workload's seeded sweeps, one call per sweep.
// Sweeps are generated on demand because later sweeps depend on the
// session state earlier ones leave (breakpoint IDs, the selected
// extended frame).
type sweeper interface {
	next() []wireOp
}

// setupRequests are the requests that take a fresh connection to the
// paused state a single-connection workload's ops run in.
func setupRequests(example string) []request {
	spec, _ := exampleByName(example)
	return []request{
		{cmd: wire.CmdLaunch, args: &wire.Args{Example: example}, launch: true},
		{cmd: wire.CmdBreak, args: &wire.Args{Spec: spec}, want: "Breakpoint 1 at"},
		{cmd: wire.CmdRun, want: "Breakpoint 1, ", stopped: true},
	}
}

func newSweeper(workload string, seed uint64) sweeper {
	rng := rand.New(rand.NewPCG(seed, 0x6432785f62656e63))
	switch workload {
	case wQuery:
		return &querySweeper{rng: rng}
	case wBurst:
		return &burstSweeper{rng: rng, nextID: 1}
	case wSession:
		return &sessionSweeper{rng: rng}
	}
	panic("perfbench: no wire sweeper for " + workload)
}

// querySweeper: each op is one standalone xbt or xvars request on the
// power session. A sweep is queryPairs pairs, each pair in seeded order.
type querySweeper struct{ rng *rand.Rand }

func (s *querySweeper) next() []wireOp {
	_, frame := exampleByName(queryExample)
	xbt := wireOp{reqs: []request{{cmd: wire.CmdXBT, want: frame}}}
	xvars := wireOp{reqs: []request{{cmd: wire.CmdXVars, want: "1. exponent"}}}
	ops := make([]wireOp, 0, 2*queryPairs)
	for i := 0; i < queryPairs; i++ {
		if s.rng.IntN(2) == 0 {
			ops = append(ops, xbt, xvars)
		} else {
			ops = append(ops, xvars, xbt)
		}
	}
	return ops
}

// burstSweeper: each op is one batch of 4*burstReadsEach seeded read
// sub-commands plus one xbreak/xdel pair, on the PageRankDelta session
// paused at the UDF.
type burstSweeper struct {
	rng    *rand.Rand
	nextID int // the ID the session's next xbreak returns
	sel    int // the session's selected extended frame
}

// burstBreakLines are DSL lines of PageRankDelta that map to exactly one
// generated location, so every xbreak installs the same amount of work.
var burstBreakLines = []int{11, 15, 16, 17, 18, 26}

// burstVars are the xvars arguments: the listing and each extended
// variable, whose rtv handlers run on evaluation.
var burstVars = []struct{ name, want string }{
	{"", "1. apply_op"},
	{"apply_op", "apply_op = s1"},
	{"schedule", "schedule = direction=push"},
	{"specialized_udf", "specialized_udf = updateEdge_1"},
}

// xframeWant and xlistWant are what xframe N and xlist print for each
// extended frame of the UDF stop.
var (
	xframeWant = [2]string{"#0 in updateEdge at pagerankdelta.gt:11", "#1 in main at pagerankdelta.gt:24"}
	xlistWant  = [2]string{">11   \tnew_rank[dst]", ">24   \t\t#s1#"}
)

func (s *burstSweeper) next() []wireOp {
	ops := make([]wireOp, burstBatches)
	for b := range ops {
		kinds := make([]string, 0, 4*burstReadsEach)
		for _, k := range []string{wire.CmdXBT, wire.CmdXFrame, wire.CmdXList, wire.CmdXVars} {
			for i := 0; i < burstReadsEach; i++ {
				kinds = append(kinds, k)
			}
		}
		s.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		n := len(kinds) + 2
		bp := s.rng.IntN(n - 1)
		del := bp + 1 + s.rng.IntN(n-1-bp)
		subs := make([]wire.SubRequest, 0, n)
		wants := make([]string, 0, n)
		id := strconv.Itoa(s.nextID)
		for len(subs) < n {
			switch i := len(subs); {
			case i == bp:
				line := burstBreakLines[s.rng.IntN(len(burstBreakLines))]
				subs = append(subs, wire.SubRequest{Command: wire.CmdXBreak,
					Arguments: &wire.Args{Spec: fmt.Sprintf("pagerankdelta.gt:%d", line)}})
				wants = append(wants, "Inserting 1 breakpoints with ID: #"+id+"\n")
			case i == del:
				subs = append(subs, wire.SubRequest{Command: wire.CmdXDel, Arguments: &wire.Args{Spec: id}})
				wants = append(wants, "Deleted DSL breakpoint #"+id+" ")
			default:
				k := kinds[0]
				kinds = kinds[1:]
				sub, want := s.read(k)
				subs = append(subs, sub)
				wants = append(wants, want)
			}
		}
		s.nextID++
		ops[b] = wireOp{reqs: []request{{cmd: wire.CmdBatch, args: &wire.Args{Batch: subs}, subWant: wants}}}
	}
	return ops
}

func (s *burstSweeper) read(kind string) (wire.SubRequest, string) {
	switch kind {
	case wire.CmdXBT:
		return wire.SubRequest{Command: kind}, xframeWant[0] + "\n" + xframeWant[1]
	case wire.CmdXFrame:
		s.sel = s.rng.IntN(2)
		return wire.SubRequest{Command: kind, Arguments: &wire.Args{Spec: strconv.Itoa(s.sel)}}, xframeWant[s.sel]
	case wire.CmdXList:
		return wire.SubRequest{Command: kind}, xlistWant[s.sel]
	}
	v := burstVars[s.rng.IntN(len(burstVars))]
	var args *wire.Args
	if v.name != "" {
		args = &wire.Args{Name: v.name}
	}
	return wire.SubRequest{Command: kind, Arguments: args}, v.want
}

// sessionSweeper: each op is one whole session lifecycle on a connection
// of its own. A sweep runs sessionRotation in seeded order.
type sessionSweeper struct{ rng *rand.Rand }

// sessionRotation is a session sweep: every example once, power twice.
// Power's lifecycle costs between quickstart's and einsum's, and
// PageRankDelta's several times any other's, so with five ops a sweep the
// median lies in the middle of power's group and the p90 in the middle of
// PageRankDelta's, not on the step between two groups' costs.
var sessionRotation = []string{"pagerankdelta", "power", "power", "einsum", "quickstart"}

func (s *sessionSweeper) next() []wireOp {
	ops := make([]wireOp, 0, len(sessionRotation))
	for _, i := range s.rng.Perm(len(sessionRotation)) {
		name := sessionRotation[i]
		spec, frame := exampleByName(name)
		ops = append(ops, wireOp{ownConn: true, reqs: []request{
			{cmd: wire.CmdLaunch, args: &wire.Args{Example: name}, launch: true},
			{cmd: wire.CmdBreak, args: &wire.Args{Spec: spec}, want: "Breakpoint 1 at"},
			{cmd: wire.CmdRun, want: "Breakpoint 1, ", stopped: true},
			{cmd: wire.CmdXBT, want: frame},
			{cmd: wire.CmdDisconnect},
		}})
	}
	return ops
}

// commandLine is the debugger command line the server executes for a
// request, as serve maps it; replica sessions execute the same lines.
func commandLine(cmd string, args *wire.Args) string {
	spec, name := "", ""
	if args != nil {
		spec, name = args.Spec, args.Name
	}
	switch cmd {
	case wire.CmdBreak, wire.CmdXFrame, wire.CmdXBreak, wire.CmdXDel:
		return cmd + " " + spec
	case wire.CmdXVars:
		if name != "" {
			return "xvars " + name
		}
	}
	return cmd
}
