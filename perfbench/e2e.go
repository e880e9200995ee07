package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times an end-to-end run sets its target up. It
// reports the median set-up time and measures on the last target.
const setupReps = 9

// minOps is the fewest ops a run measures, however long they take, so
// that at least 100 samples lie beyond the p90 it reports.
const minOps = 1000

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// target is the process an end-to-end run measures, set up and paused
// where its workload's ops run.
type target interface {
	pid() int
	// sweep runs one whole seeded sweep of ops. failed counts ops whose
	// request or output check failed; err reports a fault that ends the
	// run.
	sweep() (lat []time.Duration, failed int, err error)
	stop()
}

// runE2E is an untraced run: set up setupReps times, then run whole
// sweeps against the last target for at least the given duration and
// minOps ops, with the load generated from this process over one
// connection.
func runE2E(workload string, seed uint64, dur time.Duration, serverBin string) (*result, error) {
	// The load generator's own garbage collections delay the ops it
	// times; with its small heap, collecting rarely costs little memory.
	debug.SetGCPercent(800)
	var setups []float64
	var tgt target
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		t, err := startTarget(workload, seed, serverBin)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			t.stop()
		} else {
			tgt = t
		}
	}
	defer tgt.stop()

	cpu0, err := procCPU(tgt.pid())
	if err != nil {
		return nil, err
	}
	var lat []time.Duration
	var failed int
	start := time.Now()
	for len(lat) < minOps || time.Since(start) < dur {
		l, f, err := tgt.sweep()
		if err != nil {
			return nil, err
		}
		lat = append(lat, l...)
		failed += f
	}
	cpu1, err := procCPU(tgt.pid())
	if err != nil {
		return nil, err
	}
	hwm, err := procHWM(tgt.pid())
	if err != nil {
		return nil, err
	}

	sortDurations(lat)
	m := metrics{}
	m.set("setup_s", "s", median(setups))
	m.set("op_p50_us", "us", us(quantile(lat, 0.50)))
	m.set("op_p90_us", "us", us(quantile(lat, 0.90)))
	m.set("srv_cpu_us_per_op", "us", us(cpu1-cpu0)/float64(len(lat)))
	m.set("peak_rss_mb", "MiB", hwm)
	return &result{Correct: failed == 0, Attempted: int64(len(lat)), Failed: int64(failed), Metrics: m}, nil
}

func startTarget(workload string, seed uint64, serverBin string) (target, error) {
	if workload == wTimetravel {
		return startTTChild(seed)
	}
	srv, err := startServer(serverBin)
	if err != nil {
		return nil, err
	}
	run, err := newWireRaw(workload, seed, srv.addr)
	if err == nil && workload == wSession {
		err = run.warmBuilds()
	}
	if err != nil {
		if run != nil {
			run.close()
		}
		srv.stop()
		return nil, err
	}
	return &wireTarget{srv: srv, run: run}, nil
}

// wireTarget is a d2xserve process plus the workload's raw client.
type wireTarget struct {
	srv *server
	run *wireRaw
}

func (t *wireTarget) pid() int { return t.srv.cmd.Process.Pid }

func (t *wireTarget) stop() {
	t.run.close()
	t.srv.stop()
}

func (t *wireTarget) sweep() ([]time.Duration, int, error) {
	_, lat, failed, err := t.run.sweep(nil)
	return lat, failed, err
}

// server is a d2xserve child process listening on a loopback port.
type server struct {
	cmd    *exec.Cmd
	addr   string
	stderr bytes.Buffer // shown only if the server fails to start
}

func startServer(bin string) (*server, error) {
	s := &server{cmd: exec.Command(bin, "-addr", "127.0.0.1:0")}
	s.cmd.Stderr = &s.stderr
	out, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	line, err := bufio.NewReader(out).ReadString('\n')
	const prefix = "d2xserve: listening on "
	if err != nil || !strings.HasPrefix(line, prefix) {
		s.stop()
		return nil, fmt.Errorf("d2xserve did not report its address (read %q: %v; stderr %q)", line, err, s.stderr.String())
	}
	s.addr = strings.TrimSpace(strings.TrimPrefix(line, prefix))
	go io.Copy(io.Discard, out) // nothing else is printed; keep the pipe drained regardless
	return s, nil
}

// stop asks the server to shut down and waits for it to exit.
func (s *server) stop() { stopProcess(s.cmd) }

func stopProcess(cmd *exec.Cmd) {
	done := make(chan struct{})
	go func() {
		cmd.Wait()
		close(done)
	}()
	cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		cmd.Process.Kill()
		<-done
	}
}

// ttChild is a timetravel host running in a process of its own (this
// binary with -role timetravel-host), driven one sweep per request over
// its stdin and stdout.
type ttChild struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// ttReply is the host's answer to one sweep request.
type ttReply struct {
	LatNS  []int64 `json:"lat_ns"`
	Failed int     `json:"failed"`
	Err    string  `json:"err,omitempty"`
}

func startTTChild(seed uint64) (*ttChild, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-role", "timetravel-host", "-seed", strconv.FormatUint(seed, 10))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &ttChild{cmd: cmd, in: in, out: bufio.NewReader(out)}
	if line, err := c.out.ReadString('\n'); err != nil || line != "ready\n" {
		c.stop()
		return nil, fmt.Errorf("timetravel host did not become ready (read %q: %v)", line, err)
	}
	return c, nil
}

func (c *ttChild) pid() int { return c.cmd.Process.Pid }

func (c *ttChild) stop() {
	c.in.Close() // end of input makes the host exit
	stopProcess(c.cmd)
}

func (c *ttChild) sweep() ([]time.Duration, int, error) {
	if _, err := io.WriteString(c.in, "sweep\n"); err != nil {
		return nil, 0, err
	}
	line, err := c.out.ReadBytes('\n')
	if err != nil {
		return nil, 0, fmt.Errorf("timetravel host: %w", err)
	}
	var r ttReply
	if err := json.Unmarshal(line, &r); err != nil {
		return nil, 0, fmt.Errorf("timetravel host reply: %w", err)
	}
	if r.Err != "" {
		return nil, 0, fmt.Errorf("timetravel host: %s", r.Err)
	}
	lat := make([]time.Duration, len(r.LatNS))
	for i, ns := range r.LatNS {
		lat[i] = time.Duration(ns)
	}
	return lat, r.Failed, nil
}

// serveTTHost is the timetravel host process: it sets up, reports ready,
// then runs one sweep per "sweep" line until its input ends.
func serveTTHost(seed uint64) error {
	h, err := newTTHost(seed)
	if err != nil {
		return err
	}
	defer h.close()
	w := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(w)
	if _, err := w.WriteString("ready\n"); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		if sc.Text() != "sweep" {
			return fmt.Errorf("timetravel host: unknown request %q", sc.Text())
		}
		lat, failed, err := h.sweep(nil)
		r := ttReply{Failed: failed}
		if err != nil {
			r.Err = err.Error()
		}
		for _, d := range lat {
			r.LatNS = append(r.LatNS, int64(d))
		}
		if err := enc.Encode(&r); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return sc.Err()
}

// procCPU returns the user+system CPU time a process has used.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat CPU fields", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// procHWM returns a process's peak resident set size (VmHWM) in MiB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
