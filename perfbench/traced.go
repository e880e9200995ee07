package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"sort"
	"strings"
	"time"

	"d2x/internal/d2x"
	"d2x/internal/d2x/serve"
	"d2x/internal/d2x/wire"
	"d2x/internal/debugger"
	"d2x/internal/examplebuilds"
	"d2x/internal/minic"
	"d2x/internal/minic/journal"
)

// The traced run measures every layer in process, with spans and exact
// counts recorded only here, around calls into each layer's public
// functions:
//
//   - wire and serve: an in-process serve.Server on a listener whose
//     connections are wrapped (tracedConn), driven by the raw client, and
//     wire.Encoder/Decoder timed on the frames the run captured;
//   - debugger, d2x/session and minic: replica sessions on the server's
//     own builds that execute the same command lines directly;
//   - journal: the timetravel host, plus a replica journal for restores;
//   - build, minic and journal forward runs: direct probes.
//
// The named workload's phase gets most of the run. Every other workload
// then runs a short phase, so metrics of layers the named workload does
// not reach (and the layer budgets of all three wire workloads) are
// reported on every traced run.

// phaseShare is the part of the run the named workload's plain/traced
// sweeps take; the replica phase takes up to replicaShare.
const (
	phaseShare   = 0.5
	replicaShare = 0.2
)

func runTraced(workload string, seed uint64, dur time.Duration) (*result, error) {
	builds := map[string]*d2x.Build{}
	for _, e := range examples {
		b, err := examplebuilds.Build(e.name)
		if err != nil {
			return nil, err
		}
		builds[e.name] = b
	}
	res := &result{Metrics: metrics{}}
	if err := probeLayers(res.Metrics); err != nil {
		return nil, err
	}
	order := append([]string{workload}, slices.DeleteFunc(slices.Clone(workloadNames), func(w string) bool { return w == workload })...)
	for _, w := range order {
		var d time.Duration
		if w == workload {
			d = dur
		}
		var ph *phaseResult
		var err error
		if w == wTimetravel {
			ph, err = tracedTimetravel(seed, d)
		} else {
			ph, err = tracedWire(w, seed, builds, d)
		}
		if err != nil {
			return nil, fmt.Errorf("traced %s phase: %w", w, err)
		}
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		for k, v := range ph.m {
			if _, ok := res.Metrics[k]; !ok {
				res.Metrics[k] = v
			}
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// phaseResult is what one workload's traced phase measured.
type phaseResult struct {
	m                 metrics
	attempted, failed int64
}

// runtimeCounts reads the Go runtime's cumulative heap allocation and GC
// cycle counters.
func runtimeCounts() (allocBytes, gcCycles uint64) {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// probeLayers measures the layers every workload shares, each on its own:
// example builds, the minic VM, and journal recording.
func probeLayers(m metrics) error {
	const reps = 5
	for _, e := range examples {
		var ms []float64
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			if _, err := examplebuilds.Build(e.name); err != nil {
				return err
			}
			ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
		}
		m.set("build.ms."+e.name, "ms", median(ms))
	}

	b, err := examplebuilds.Build(pagerankExample)
	if err != nil {
		return err
	}
	var rate []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		_, steps, err := b.Run()
		if err != nil {
			return err
		}
		rate = append(rate, float64(steps)/time.Since(t0).Seconds())
	}
	m.set("minic.steps_per_s", "1/s", median(rate))

	// The same forward run with and without the journal, in pairs.
	forward := func(record bool) (time.Duration, int64, error) {
		vm := minic.NewVM(b.Program, io.Discard)
		if err := vm.Start(); err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		var j *journal.Journal
		if record {
			var err error
			if j, err = journal.Attach(vm, journal.Options{}); err != nil {
				return 0, 0, err
			}
		}
		if err := vm.RunToCompletion(0); err != nil {
			return 0, 0, err
		}
		d := time.Since(t0)
		var bytes int64
		if j != nil {
			bytes = j.Stats().RecordBytes
			j.Stop()
		}
		return d, bytes, nil
	}
	var overhead []float64
	var journalBytes int64
	for i := 0; i < reps; i++ {
		plain, _, err := forward(false)
		if err != nil {
			return err
		}
		rec, n, err := forward(true)
		if err != nil {
			return err
		}
		journalBytes = n
		overhead = append(overhead, 100*(float64(rec)/float64(plain)-1))
	}
	m.set("journal.record_overhead_pct", "%", median(overhead))
	m.set("journal.bytes", "B", float64(journalBytes))
	return nil
}

// inProcServer serves the shared builds on a loopback listener, wrapped
// by tr when tr is non-nil.
func inProcServer(builds map[string]*d2x.Build, tr *tracer) (addr string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := serve.NewWithBuilds(func(name string) (*d2x.Build, error) {
		if b := builds[name]; b != nil {
			return b, nil
		}
		return nil, fmt.Errorf("no example %q", name)
	})
	var l net.Listener = ln
	if tr != nil {
		l = tracedListener{Listener: ln, tr: tr}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(l)
	}()
	return ln.Addr().String(), func() { srv.Close(); <-done }, nil
}

// tracedWire is one wire workload's traced phase: a first traced sweep
// whose frames are captured and whose exact counts are kept, then plain
// and traced sweeps in alternation for d (at least one pair), then the
// replica sessions over the same sweeps.
func tracedWire(w string, seed uint64, builds map[string]*d2x.Build, d time.Duration) (*phaseResult, error) {
	tr := newTracer()
	plainAddr, stopPlain, err := inProcServer(builds, nil)
	if err != nil {
		return nil, err
	}
	defer stopPlain()
	tracedAddr, stopTraced, err := inProcServer(builds, tr)
	if err != nil {
		return nil, err
	}
	defer stopTraced()
	plain, err := newWireRaw(w, seed, plainAddr)
	if err != nil {
		return nil, err
	}
	defer plain.close()
	traced, err := newWireRaw(w, seed, tracedAddr)
	if err != nil {
		return nil, err
	}
	defer traced.close()

	ph := &phaseResult{m: metrics{}}

	// First traced sweep: captured, exact counts.
	c0 := tr.snapshot()
	tr.capturing.Store(true)
	firstOps, lat, failed, err := traced.sweep(tr)
	if err != nil {
		return nil, err
	}
	tr.capturing.Store(false)
	first := tr.snapshot().sub(c0)
	n1 := float64(len(lat))
	ph.attempted += int64(len(lat))
	ph.failed += int64(failed)
	m := ph.m
	m.set("wire.bytes_per_op", "B", float64(first.bytesIn+first.bytesOut)/n1)
	m.set("wire.frames_per_op", "count", float64(first.framesIn+first.framesOut)/n1)
	m.set("serve.reads_per_op", "count", float64(first.reads)/n1)
	m.set("serve.writes_per_op", "count", float64(first.writes)/n1)

	// Plain and traced sweeps in alternation.
	var plainLat, tracedLat []time.Duration
	var tracedTotal counts
	var allocBytes, gcCycles uint64
	var ops [][]wireOp // every traced sweep's ops, first included, for the replicas
	ops = append(ops, firstOps)
	decodes0 := tableDecodes(builds) // the first sweep paid each build's one decode
	start := time.Now()
	for len(tracedLat) == 0 || time.Since(start) < time.Duration(float64(d)*phaseShare) {
		_, lat, failed, err := plain.sweep(nil)
		if err != nil {
			return nil, err
		}
		plainLat = append(plainLat, lat...)
		ph.attempted += int64(len(lat))
		ph.failed += int64(failed)

		c0 := tr.snapshot()
		a0, g0 := runtimeCounts()
		sweepOps, lat, failed, err := traced.sweep(tr)
		if err != nil {
			return nil, err
		}
		a1, g1 := runtimeCounts()
		c := tr.snapshot().sub(c0)
		allocBytes += a1 - a0
		gcCycles += g1 - g0
		tracedTotal = tracedTotal.add(c)
		tracedLat = append(tracedLat, lat...)
		ops = append(ops, sweepOps)
		ph.attempted += int64(len(lat))
		ph.failed += int64(failed)
	}
	nt := float64(len(tracedLat))
	m.set("serve.read_us_per_op", "us", float64(tracedTotal.readNs)/1e3/nt)
	m.set("serve.write_us_per_op", "us", float64(tracedTotal.writeNs)/1e3/nt)
	handleUS := float64(tracedTotal.handleNs) / 1e3 / nt
	m.set("serve.handle_us", "us", handleUS)
	if tracedTotal.launches > 0 {
		m.set("serve.launch_us", "us", float64(tracedTotal.launchNs)/1e3/float64(tracedTotal.launches))
	}
	m.set("go.alloc_bytes_per_op", "B", float64(allocBytes)/nt)
	m.set("go.gc_cycles_per_kop", "count", 1000*float64(gcCycles)/nt)
	m.set("session.table_decodes_per_op", "count", float64(tableDecodes(builds)-decodes0)/float64(len(plainLat)+len(tracedLat)))
	sortDurations(plainLat)
	sortDurations(tracedLat)
	m.set("trace.overhead_pct", "%", 100*(float64(quantile(tracedLat, 0.5))/float64(quantile(plainLat, 0.5))-1))

	// Codec time on the captured frames.
	decNs, decFrames, err := decodeTime(tr.capIn)
	if err != nil {
		return nil, err
	}
	encNs, encFrames, err := encodeTime(tr.capOut)
	if err != nil {
		return nil, err
	}
	m.set("wire.decode_ns_per_frame", "ns", decNs/float64(decFrames))
	m.set("wire.encode_ns_per_frame", "ns", encNs/float64(encFrames))
	wireUS := (decNs + encNs) / 1e3 / n1

	// Replicas over the same sweeps: a timed pass, then an
	// allocation-counting pass over the first sweep on fresh replicas.
	rep, err := runReplicas(w, builds, ops, time.Duration(float64(d)*replicaShare), false)
	if err != nil {
		return nil, err
	}
	allocs, err := runReplicas(w, builds, ops[:1], 0, true)
	if err != nil {
		return nil, err
	}
	ph.failed += rep.failed + allocs.failed
	for cmd, a := range rep.exec {
		m.set("debugger.execute_us."+cmd, "us", a.meanUS())
	}
	m.set("debugger.allocs_per_cmd", "count", float64(allocs.mallocs)/float64(allocs.calls))
	m.set("minic.steps_per_op", "count", float64(rep.firstSteps)/float64(rep.firstOps))
	debuggerUS := us(rep.execTotal) / float64(rep.ops)
	sessionUS := 0.0
	if w == wSession {
		sessionUS = (rep.newSession.meanUS() + rep.closeSession.meanUS())
		m.set("session.new_us", "us", sessionUS)
		m.set("session.new_process_us", "us", rep.newProcess.meanUS())
	}

	// The layer budget of a request's handle span.
	unattributed := handleUS - wireUS - debuggerUS - sessionUS
	pre := "budget." + w + "."
	m.set(pre+"wire_us_per_op", "us", wireUS)
	m.set(pre+"debugger_us_per_op", "us", debuggerUS)
	if w == wSession {
		m.set(pre+"session_us_per_op", "us", sessionUS)
	}
	m.set(pre+"unattributed_us_per_op", "us", unattributed)
	m.set(pre+"unattributed_pct", "%", 100*unattributed/handleUS)
	fmt.Fprintf(os.Stderr, "perfbench: layer budget of %s, per op (serve.handle_us %.1f us):\n", w, handleUS)
	fmt.Fprintf(os.Stderr, "  %-14s %9.1f us\n", "wire", wireUS)
	fmt.Fprintf(os.Stderr, "  %-14s %9.1f us\n", "debugger", debuggerUS)
	if w == wSession {
		fmt.Fprintf(os.Stderr, "  %-14s %9.1f us\n", "session", sessionUS)
	}
	fmt.Fprintf(os.Stderr, "  %-14s %9.1f us (%.0f%%)\n", "unattributed", unattributed, 100*unattributed/handleUS)
	return ph, nil
}

func tableDecodes(builds map[string]*d2x.Build) int {
	n := 0
	for _, b := range builds {
		n += b.Runtime.TableDecodes()
	}
	return n
}

// timedPasses repeats pass until it has run at least 5 times and 20 ms,
// and returns the median pass time.
func timedPasses(pass func() (time.Duration, error)) (float64, error) {
	var ns []float64
	var total time.Duration
	for len(ns) < 5 || total < 20*time.Millisecond {
		d, err := pass()
		if err != nil {
			return 0, err
		}
		ns = append(ns, float64(d.Nanoseconds()))
		total += d
	}
	return median(ns), nil
}

// decodeTime times wire.Decoder.Decode over captured frames, one decoder
// per pass as the server keeps one per connection.
func decodeTime(captured []byte) (float64, int, error) {
	frames := bytes.Count(captured, []byte{'\n'})
	ns, err := timedPasses(func() (time.Duration, error) {
		dec := wire.NewDecoder(bytes.NewReader(captured))
		var total time.Duration
		for {
			t0 := time.Now()
			_, err := dec.Decode()
			total += time.Since(t0)
			if err == io.EOF {
				return total, nil
			}
			if err != nil {
				return 0, err
			}
		}
	})
	return ns, frames, err
}

// encodeTime times wire.Encoder.Encode over the captured frames.
func encodeTime(captured []byte) (float64, int, error) {
	var frames []*wire.Frame
	dec := wire.NewDecoder(bytes.NewReader(captured))
	for {
		f, err := dec.Decode()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, err
		}
		frames = append(frames, f)
	}
	ns, err := timedPasses(func() (time.Duration, error) {
		enc := wire.NewEncoder(io.Discard)
		var total time.Duration
		for _, f := range frames {
			t0 := time.Now()
			err := enc.Encode(f)
			total += time.Since(t0)
			if err != nil {
				return 0, err
			}
		}
		return total, nil
	})
	return ns, len(frames), err
}

// replicaResult is what the replica sessions measured.
type replicaResult struct {
	exec                                 map[string]*meanAcc
	execTotal                            time.Duration
	calls                                int64
	mallocs                              uint64
	ops                                  int64
	firstOps, firstSteps                 int64
	newSession, closeSession, newProcess meanAcc
	failed                               int64
	countAllocs                          bool
}

// replica is a debug session on one of the server's builds that
// executes the command lines the server executed for the traced sweeps.
type replica struct {
	d   *debugger.Debugger
	out strings.Builder
}

func newReplica(b *d2x.Build) (*replica, error) {
	r := &replica{}
	var err error
	r.d, err = b.NewSession(&r.out)
	return r, err
}

// exec runs one command line, timed, and checks its output holds want.
// In an allocation-counting pass it counts the heap allocations of the
// Execute call instead; the stop-the-world reads that takes would skew
// the times.
func (r *replica) exec(res *replicaResult, cmd, line, want string) error {
	var ms0, ms1 runtime.MemStats
	if res.countAllocs {
		runtime.ReadMemStats(&ms0)
	}
	r.out.Reset()
	t0 := time.Now()
	err := r.d.Execute(line)
	d := time.Since(t0)
	if res.countAllocs {
		runtime.ReadMemStats(&ms1)
		res.mallocs += ms1.Mallocs - ms0.Mallocs
	}
	res.calls++
	res.execTotal += d
	acc(res.exec, cmd).add(d)
	if err != nil {
		return fmt.Errorf("replica %s: %w", line, err)
	}
	if !strings.Contains(r.out.String(), want) {
		return fmt.Errorf("replica %s: output %q lacks %q", line, r.out.String(), want)
	}
	return nil
}

// runReplicas executes the traced sweeps' command lines on replica
// sessions, for at least one sweep and at most d.
func runReplicas(w string, builds map[string]*d2x.Build, sweeps [][]wireOp, d time.Duration, countAllocs bool) (*replicaResult, error) {
	res := &replicaResult{exec: map[string]*meanAcc{}, countAllocs: countAllocs}
	var paused *replica
	if w != wSession {
		example := pausedExample(w)
		var err error
		if paused, err = newReplica(builds[example]); err != nil {
			return nil, err
		}
		defer paused.d.Close()
		spec, _ := exampleByName(example)
		for _, line := range []string{"break " + spec, "run"} {
			if err := paused.d.Execute(line); err != nil {
				return nil, fmt.Errorf("replica set-up: %w", err)
			}
		}
	}
	start := time.Now()
	for si, ops := range sweeps {
		if si > 0 && time.Since(start) > d {
			break
		}
		for _, op := range ops {
			var steps int64
			var err error
			if op.ownConn {
				steps, err = res.lifecycle(builds, op)
			} else {
				steps, err = res.paused(paused, op)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: replica op failed: %v\n", err)
				res.failed++
			}
			res.ops++
			if si == 0 {
				res.firstOps++
				res.firstSteps += steps
			}
		}
	}
	return res, nil
}

// paused replays a single-connection op's command lines on the paused
// replica and returns the VM instructions they executed.
func (res *replicaResult) paused(r *replica, op wireOp) (int64, error) {
	vm := r.d.Process().VM
	steps0 := vm.Steps
	for _, q := range op.reqs {
		if q.cmd != wire.CmdBatch {
			if err := r.exec(res, q.cmd, commandLine(q.cmd, q.args), q.want); err != nil {
				return 0, err
			}
			continue
		}
		for i, sub := range q.args.Batch {
			if err := r.exec(res, sub.Command, commandLine(sub.Command, sub.Arguments), q.subWant[i]); err != nil {
				return 0, err
			}
		}
	}
	return vm.Steps - steps0, nil
}

// lifecycle replays a session op: a new session on the example's build,
// its command lines, and Close.
func (res *replicaResult) lifecycle(builds map[string]*d2x.Build, op wireOp) (int64, error) {
	b := builds[op.reqs[0].args.Example]
	t0 := time.Now()
	_, err := debugger.NewProcess(b.Program, b.DebugBlob, io.Discard)
	res.newProcess.add(time.Since(t0))
	if err != nil {
		return 0, err
	}
	t0 = time.Now()
	r, err := newReplica(b)
	res.newSession.add(time.Since(t0))
	if err != nil {
		return 0, err
	}
	vm := r.d.Process().VM
	var steps int64
	for _, q := range op.reqs {
		switch q.cmd {
		case wire.CmdLaunch, wire.CmdDisconnect:
			continue
		}
		s0 := vm.Steps
		if err := r.exec(res, q.cmd, commandLine(q.cmd, q.args), q.want); err != nil {
			r.d.Close()
			return 0, err
		}
		steps += vm.Steps - s0
	}
	t0 = time.Now()
	r.d.Close()
	res.closeSession.add(time.Since(t0))
	return steps, nil
}

// tracedTimetravel is the timetravel phase: a first traced sweep for the
// exact counts, plain and traced sweeps in alternation for d (at least
// one pair), then a replica journal for restore times.
func tracedTimetravel(seed uint64, d time.Duration) (*phaseResult, error) {
	h, err := newTTHost(seed)
	if err != nil {
		return nil, err
	}
	defer h.close()
	ph := &phaseResult{m: metrics{}}
	m := ph.m

	sp := &ttSpans{exec: map[string]*meanAcc{}}
	lat, failed, err := h.sweep(sp)
	if err != nil {
		return nil, err
	}
	ph.attempted += int64(len(lat))
	ph.failed += int64(failed)
	m.set("journal.replayed_steps_per_op", "count", float64(sp.replayed)/float64(sp.ops))
	m.set("minic.steps_per_op", "count", float64(sp.replayed+sp.xbtSteps)/float64(sp.ops))

	var plainLat, tracedLat []time.Duration
	var allocBytes, gcCycles uint64
	start := time.Now()
	for len(tracedLat) == 0 || time.Since(start) < time.Duration(float64(d)*phaseShare) {
		lat, failed, err := h.sweep(nil)
		if err != nil {
			return nil, err
		}
		plainLat = append(plainLat, lat...)
		ph.attempted += int64(len(lat))
		ph.failed += int64(failed)

		a0, g0 := runtimeCounts()
		lat, failed, err = h.sweep(sp)
		if err != nil {
			return nil, err
		}
		a1, g1 := runtimeCounts()
		allocBytes += a1 - a0
		gcCycles += g1 - g0
		tracedLat = append(tracedLat, lat...)
		ph.attempted += int64(len(lat))
		ph.failed += int64(failed)
	}
	for cmd, a := range sp.exec {
		m.set("debugger.execute_us."+cmd, "us", a.meanUS())
	}
	nt := float64(len(tracedLat))
	m.set("go.alloc_bytes_per_op", "B", float64(allocBytes)/nt)
	m.set("go.gc_cycles_per_kop", "count", 1000*float64(gcCycles)/nt)
	sortDurations(plainLat)
	sortDurations(tracedLat)
	m.set("trace.overhead_pct", "%", 100*(float64(quantile(tracedLat, 0.5))/float64(quantile(plainLat, 0.5))-1))

	restore, err := replicaRestores(h.build, h.opTargets())
	if err != nil {
		return nil, err
	}
	m.set("journal.restore_us", "us", restore)
	return ph, nil
}

// replicaRestores records a replica session's forward run the way the
// host did, then times journal.RestoreTo to each of the positions the
// ops landed at, latest first (a restore discards the history after
// it). It returns the mean restore time in microseconds.
func replicaRestores(b *d2x.Build, targets []int64) (float64, error) {
	r, err := newReplica(b)
	if err != nil {
		return 0, err
	}
	defer r.d.Close()
	spec, _ := exampleByName(pagerankExample)
	for _, line := range []string{"break " + spec, "run", "record", "delete", "continue"} {
		if err := r.d.Execute(line); err != nil {
			return 0, fmt.Errorf("replica journal: %s: %w", line, err)
		}
	}
	j, ok := b.Runtime.StateFor(r.d.Process().VM).Journal.(*journal.Journal)
	if !ok {
		return 0, fmt.Errorf("replica journal: no journal on the session")
	}
	sort.Slice(targets, func(i, k int) bool { return targets[i] > targets[k] })
	var a meanAcc
	for _, p := range targets {
		t0 := time.Now()
		if err := j.RestoreTo(p); err != nil {
			return 0, err
		}
		a.add(time.Since(t0))
	}
	return a.meanUS(), nil
}
