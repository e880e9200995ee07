// Command perfbench is the repository's benchmark: it measures one
// interactive debugger op end to end, against a d2xserve process or a
// timetravel debug session in a process of its own, and, with -trace 1,
// layer by layer in process. See README.md for the workloads and metrics.
//
// Usage:
//
//	perfbench -workload NAME -seed N -seconds S -trace 0|1 -server PATH
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: query, ide-burst, session or timetravel")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured duration of the run")
	trace := fs.Int("trace", 0, "1 makes the traced, in-process run that reports per-layer metrics")
	serverBin := fs.String("server", "", "d2xserve binary the untraced wire workloads measure")
	role := fs.String("role", "", "internal: timetravel-host runs the timetravel target process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *role == "timetravel-host" {
		if err := serveTTHost(*seed); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	if !slices.Contains(workloadNames, *workload) || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload query|ide-burst|session|timetravel -seed N -seconds S -trace 0|1 -server PATH")
		return 2
	}
	dur := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(*workload, *seed, dur)
	} else {
		if *serverBin == "" && *workload != wTimetravel {
			fmt.Fprintln(os.Stderr, "perfbench: -server is required for the untraced wire workloads")
			return 2
		}
		res, err = runE2E(*workload, *seed, dur, *serverBin)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if err := res.print(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}
