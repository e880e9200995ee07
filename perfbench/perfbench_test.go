package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"d2x/internal/d2x"
	"d2x/internal/d2x/wire"
	"d2x/internal/examplebuilds"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the timetravel run starts its host process (-role timetravel-host).
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-role" {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "d2xserve")
	out, err := exec.Command("go", "build", "-trimpath", "-o", bin, "d2x/cmd/d2xserve").CombinedOutput()
	if err != nil {
		t.Fatalf("build d2xserve: %v\n%s", err, out)
	}
	return bin
}

func checkEmitted(t *testing.T, res *result, want []struct{ Name, Unit string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for _, w := range want {
		got, ok := res.Metrics[w.Name]
		if !ok {
			t.Errorf("metric %s not emitted", w.Name)
		} else if got.Unit != w.Unit {
			t.Errorf("metric %s has unit %q, want %q", w.Name, got.Unit, w.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
}

// TestEveryMetricEmitted runs every workload at minimal length, untraced
// and traced, and checks that each run emits exactly the metrics
// BENCHMARK.json names, with their units, and that no op failed.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readSpec(t)
	server := buildServer(t)
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			res, err := runE2E(w, 7, time.Nanosecond, server)
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, res, spec.EndToEnd)
			res, err = runTraced(w, 7, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, res, spec.PerLayer)
		})
	}
}

// exactCounts are the traced metrics that count work rather than time
// it; the same seed must reproduce them bit for bit.
var exactCounts = []string{
	"wire.bytes_per_op", "wire.frames_per_op",
	"serve.reads_per_op", "serve.writes_per_op",
	"session.table_decodes_per_op", "minic.steps_per_op",
	"journal.replayed_steps_per_op",
}

// TestExactCountsRepeat runs each workload's traced phase twice with the
// same seed and requires identical exact counts; a third run with
// another seed must pass its checks too.
func TestExactCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's traced phase twice")
	}
	builds := map[string]*d2x.Build{}
	for _, e := range examples {
		b, err := examplebuilds.Build(e.name)
		if err != nil {
			t.Fatal(err)
		}
		builds[e.name] = b
	}
	phase := func(w string, seed uint64) *phaseResult {
		var ph *phaseResult
		var err error
		if w == wTimetravel {
			ph, err = tracedTimetravel(seed, 0)
		} else {
			ph, err = tracedWire(w, seed, builds, 0)
		}
		if err != nil {
			t.Fatalf("%s seed %d: %v", w, seed, err)
		}
		if ph.failed != 0 {
			t.Fatalf("%s seed %d: %d of %d ops failed", w, seed, ph.failed, ph.attempted)
		}
		return ph
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			a, b := phase(w, 11), phase(w, 11)
			phase(w, 12)
			n := 0
			for _, name := range exactCounts {
				ma, oka := a.m[name]
				mb, okb := b.m[name]
				if oka != okb {
					t.Errorf("%s emitted by one run only", name)
					continue
				}
				if oka {
					n++
					if ma.Value != mb.Value {
						t.Errorf("%s: %v then %v with the same seed", name, ma.Value, mb.Value)
					}
				}
			}
			if n == 0 {
				t.Error("no exact counts emitted")
			}
		})
	}
}

// TestSweepsKeepTheirMix checks the property the benchmark's steadiness
// rests on: the seed changes the order of the sweeps' commands but not
// their multiset.
func TestSweepsKeepTheirMix(t *testing.T) {
	mix := func(w string, seed uint64) (map[string]int, string) {
		m := map[string]int{}
		var order string
		sw := newSweeper(w, seed)
		var ops []wireOp
		for i := 0; i < 3; i++ {
			ops = append(ops, sw.next()...)
		}
		for _, op := range ops {
			for _, r := range op.reqs {
				m[r.cmd]++
				order += r.cmd + " "
				if r.args != nil {
					m["example "+r.args.Example]++
					order += r.args.Example + " "
					for _, s := range r.args.Batch {
						m["sub "+s.Command]++
						order += s.Command + " "
					}
				}
			}
		}
		return m, order
	}
	for _, w := range []string{wQuery, wBurst, wSession} {
		a, orderA := mix(w, 1)
		b, orderB := mix(w, 99)
		if orderA == orderB {
			t.Errorf("%s: seeds 1 and 99 generate the same sweeps", w)
		}
		if len(a) != len(b) {
			t.Errorf("%s: mixes differ: %v vs %v", w, a, b)
		}
		for k, v := range a {
			if b[k] != v {
				t.Errorf("%s: %s appears %d times with seed 1, %d with seed 99", w, k, v, b[k])
			}
		}
	}
}

// TestBatchChecksEachSlot checks that a batch sub-result is checked in
// its own slot: an xframe 0 whose result lacks frame #0 fails even though
// the xbt beside it prints that frame.
func TestBatchChecksEachSlot(t *testing.T) {
	subs := []wire.SubRequest{{Command: wire.CmdXBT}, {Command: wire.CmdXFrame, Arguments: &wire.Args{Spec: "0"}}}
	ops, _, err := prepare([]wireOp{{reqs: []request{{
		cmd: wire.CmdBatch, args: &wire.Args{Batch: subs},
		subWant: []string{xframeWant[0] + "\n" + xframeWant[1], xframeWant[0]},
	}}}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	req := &ops[0].reqs[0]
	response := func(results ...wire.SubResult) []byte {
		b, err := json.Marshal(wire.Response(1, wire.Request(1, wire.CmdBatch, nil), &wire.Body{Results: results}))
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	xbt := wire.SubResult{Success: true, Output: xframeWant[0] + "\n" + xframeWant[1] + "\n"}
	for _, c := range []struct {
		name    string
		line    []byte
		wantErr bool
	}{
		{"both right", response(xbt, wire.SubResult{Success: true, Output: xframeWant[0]}), false},
		{"xframe printed frame 1", response(xbt, wire.SubResult{Success: true, Output: xframeWant[1]}), true},
		{"xframe failed", response(xbt, wire.SubResult{Message: xframeWant[0]}), true},
		{"one result", response(xbt), true},
		{"three results", response(xbt, xbt, xbt), true},
	} {
		if err := req.check(c.line, false); (err != nil) != c.wantErr {
			t.Errorf("%s: check returned %v", c.name, err)
		}
	}
}
