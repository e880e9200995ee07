package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"time"

	"d2x/internal/d2x"
	"d2x/internal/debugger"
	"d2x/internal/examplebuilds"
	"d2x/internal/minic/journal"
)

// Timetravel sweep shape: ttSegments evenly spaced segments over the
// recorded history, ttHops reverse hops in each. Op cost grows with the
// position replayed to, so the grid, not the seed, fixes the cost mix;
// the seed picks the segment the sweep starts at (the first hop). An odd
// segment count puts the median in the middle of one segment's hops
// rather than on the step between two segments' costs.
const (
	ttSegments = 33
	ttHops     = 2
)

// ttHit is one UDF breakpoint hit of the recorded forward run: its
// recorded position and what the debugger printed there. It is the
// record/replay oracle a reverse hop to the same hit is checked against.
type ttHit struct {
	pos    int64
	report string // the stop report
	xbt    string
}

// ttHost is a PageRankDelta debug session with its whole forward run
// recorded, driven through Debugger.Execute the way d2xdbg drives it.
type ttHost struct {
	build *d2x.Build
	d     *debugger.Debugger
	out   strings.Builder
	hits  []ttHit
	cur   int // the hit the debugger stands at; len(hits) at the exit, -1 after a failed op
	start int // the segment sweeps start at
}

// newTTHost builds PageRankDelta, stops at the first UDF hit, records the
// forward run to exit and captures the oracle at every hit.
func newTTHost(seed uint64) (*ttHost, error) {
	b, err := examplebuilds.Build(pagerankExample)
	if err != nil {
		return nil, err
	}
	h := &ttHost{build: b}
	if h.d, err = b.NewSession(&h.out); err != nil {
		return nil, err
	}
	spec, _ := exampleByName(pagerankExample)
	report, err := h.exec("break " + spec)
	if err == nil {
		report, err = h.exec("run")
	}
	if err == nil {
		_, err = h.exec("record")
	}
	for err == nil && h.d.LastStop().Reason == debugger.StopBreakpoint {
		hit := ttHit{pos: h.d.ActiveRecorder().Step(), report: report}
		if hit.xbt, err = h.exec("xbt"); err != nil {
			break
		}
		h.hits = append(h.hits, hit)
		report, err = h.exec("continue")
	}
	if err != nil {
		h.d.Close()
		return nil, fmt.Errorf("timetravel set-up: %w", err)
	}
	if len(h.hits) < ttSegments+ttHops {
		h.d.Close()
		return nil, fmt.Errorf("timetravel set-up: only %d UDF hits recorded", len(h.hits))
	}
	h.cur = len(h.hits)
	h.start = rand.New(rand.NewPCG(seed, 0x74696d6574726176)).IntN(ttSegments)
	return h, nil
}

func (h *ttHost) close() { h.d.Close() }

// exec runs one command line and returns its transcript.
func (h *ttHost) exec(line string) (string, error) {
	h.out.Reset()
	err := h.d.Execute(line)
	return h.out.String(), err
}

// journal is the session's execution journal.
func (h *ttHost) journal() *journal.Journal {
	j, _ := h.build.Runtime.StateFor(h.d.Process().VM).Journal.(*journal.Journal)
	return j
}

// segmentStart is the hit segment k's hops start from.
func (h *ttHost) segmentStart(k int) int {
	return ttHops + k*(len(h.hits)-1-ttHops)/(ttSegments-1)
}

// opTargets returns the recorded positions a sweep's ops land at.
func (h *ttHost) opTargets() []int64 {
	var pos []int64
	for k := 0; k < ttSegments; k++ {
		for j := 1; j <= ttHops; j++ {
			pos = append(pos, h.hits[h.segmentStart(k)-j].pos)
		}
	}
	return pos
}

// ttSpans receives the per-command timings of a traced sweep. A nil
// *ttSpans records nothing.
type ttSpans struct {
	exec     map[string]*meanAcc // command → Execute time
	replayed int64               // instructions journal replays re-executed in ops
	xbtSteps int64               // instructions the ops' xbt executed
	ops      int
}

func (s *ttSpans) time(cmd string, d time.Duration) {
	if s != nil {
		acc(s.exec, cmd).add(d)
	}
}

// sweep runs one whole sweep: for every segment, starting at h.start,
// reposition to the segment's start hit (forward with continue, or back
// with record goto), then make ttHops ops, each one reverse-continue to
// the previous hit and xbt there, checked against the oracle. It returns
// each op's latency; a failed op's latency is failedLatency.
func (h *ttHost) sweep(sp *ttSpans) (lat []time.Duration, failed int, err error) {
	for i := 0; i < ttSegments; i++ {
		k := (h.start + i) % ttSegments
		if err := h.reposition(h.segmentStart(k), sp); err != nil {
			return lat, failed, err
		}
		for j := 0; j < ttHops; j++ {
			d, err := h.hop(sp)
			if err != nil {
				failed++
				d = failedLatency
			}
			lat = append(lat, d)
		}
	}
	return lat, failed, nil
}

// reposition moves the debugger to hit target. Reverse execution
// discards the history after the position it lands at, so moving forward
// re-executes (and re-records) with continue.
func (h *ttHost) reposition(target int, sp *ttSpans) error {
	for h.cur >= 0 && h.cur < target {
		t0 := time.Now()
		report, err := h.exec("continue")
		sp.time("continue", time.Since(t0))
		h.cur++
		if err != nil {
			return err
		}
		if report != h.hits[h.cur].report {
			return fmt.Errorf("continue to hit %d: report %q, want %q", h.cur, report, h.hits[h.cur].report)
		}
	}
	if h.cur == target {
		return nil
	}
	t0 := time.Now()
	_, err := h.exec("record goto " + strconv.FormatInt(h.hits[target].pos, 10))
	sp.time("record-goto", time.Since(t0))
	if err != nil {
		return err
	}
	h.cur = target
	if got := h.d.ActiveRecorder().Step(); got != h.hits[target].pos {
		return fmt.Errorf("record goto: at position %d, want %d", got, h.hits[target].pos)
	}
	return nil
}

// hop makes one op and checks it: the debugger must land on the previous
// hit's recorded position, print the forward run's stop report, and
// print a byte-identical xbt.
func (h *ttHost) hop(sp *ttSpans) (time.Duration, error) {
	if h.cur < 1 {
		return 0, fmt.Errorf("reverse-continue: position lost after a failed op")
	}
	idx := h.cur - 1
	want := h.hits[idx]
	h.cur = -1 // unknown until the checks pass
	var j *journal.Journal
	var replayed0, steps0 int64
	vm := h.d.Process().VM
	if sp != nil {
		j = h.journal()
		replayed0 = j.Stats().ReplaySteps
	}
	t0 := time.Now()
	report, err := h.exec("reverse-continue")
	t1 := time.Now()
	if sp != nil {
		steps0 = vm.Steps
	}
	var xbt string
	if err == nil {
		xbt, err = h.exec("xbt")
	}
	t2 := time.Now()
	if sp != nil {
		sp.time("reverse-continue", t1.Sub(t0))
		sp.time("xbt", t2.Sub(t1))
		sp.replayed += j.Stats().ReplaySteps - replayed0
		sp.xbtSteps += vm.Steps - steps0
		sp.ops++
	}
	if err != nil {
		return 0, err
	}
	if got := h.d.ActiveRecorder().Step(); got != want.pos {
		return 0, fmt.Errorf("reverse-continue: at position %d, want %d", got, want.pos)
	}
	if h.d.LastStop().Reason != debugger.StopBreakpoint || report != want.report {
		return 0, fmt.Errorf("reverse-continue: report %q, want %q", report, want.report)
	}
	if xbt != want.xbt {
		return 0, fmt.Errorf("xbt after reverse-continue: %q, want the recorded %q", xbt, want.xbt)
	}
	h.cur = idx
	return t2.Sub(t0), nil
}
