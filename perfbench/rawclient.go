package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"d2x/internal/d2x/wire"
)

// Both runs drive their wire servers with one raw client: the requests of
// a sweep are encoded before the sweep starts, and responses are read
// into one reused buffer and checked on their bytes. The client so adds
// little work beside the server's when both share a small host, and
// allocates nothing while the server works, which makes the Go runtime
// counts of the traced run the server's.

// rawReq is one request, encoded, with its checks in wire form.
type rawReq struct {
	frame    []byte
	want     []byte   // JSON-escaped fragment the response must contain
	subWants [][]byte // for a batch, the fragment each sub-result must contain, in order
	stopped  bool
	launch   bool
}

type rawOp struct {
	ownConn bool
	reqs    []rawReq
}

var (
	jSuccess   = []byte(`"success":true`)
	jResponse  = []byte(`"type":"response"`)
	jStopped   = []byte(`"event":"stopped"`)
	jBreakStop = []byte(`"reason":"breakpoint"`)
	jSession   = []byte(`"session":`)
	jResults   = []byte(`"results":[`)
	// jSlot begins every encoded sub-result. A string value cannot
	// contain it unescaped, so it splits the results array into slots.
	jSlot   = []byte(`{"success":`)
	jSlotOK = []byte(`{"success":true`)
)

// jsonFragment is s as it appears inside an encoded JSON string.
func jsonFragment(s string) []byte {
	b, _ := json.Marshal(s) // a string always marshals
	return b[1 : len(b)-1]
}

// prepare encodes a sweep's ops. seq is the last request sequence number
// the persistent connection used; it returns the updated value.
func prepare(ops []wireOp, seq int64) ([]rawOp, int64, error) {
	out := make([]rawOp, len(ops))
	for i, op := range ops {
		s := &seq
		connSeq := int64(0)
		if op.ownConn {
			s = &connSeq
		}
		out[i].ownConn = op.ownConn
		for _, r := range op.reqs {
			*s++
			b, err := json.Marshal(wire.Request(*s, r.cmd, r.args))
			if err != nil {
				return nil, seq, err
			}
			rr := rawReq{frame: append(b, '\n'), want: jsonFragment(r.want), stopped: r.stopped, launch: r.launch}
			for _, w := range r.subWant {
				rr.subWants = append(rr.subWants, jsonFragment(w))
			}
			out[i].reqs = append(out[i].reqs, rr)
		}
	}
	return out, seq, nil
}

// checkError is a response that failed its checks. The response was read
// whole, so the connection stays usable; any other error from do leaves
// it unusable.
type checkError struct{ error }

// check applies r's checks to its response line. The part before the
// results array holds the response's own success and output; each
// sub-result is checked in its own slot, in order.
func (r *rawReq) check(line []byte, stopped bool) error {
	head, results := line, []byte(nil)
	if i := bytes.Index(line, jResults); i >= 0 {
		head, results = line[:i], line[i+len(jResults):]
	}
	if !bytes.Contains(head, jSuccess) {
		return fmt.Errorf("response %.300q did not succeed", line)
	}
	if !bytes.Contains(head, r.want) {
		return fmt.Errorf("response %.300q lacks %q", line, r.want)
	}
	for i, w := range r.subWants {
		if !bytes.HasPrefix(results, jSlot) {
			return fmt.Errorf("response %.300q: %d results for %d sub-commands", line, i, len(r.subWants))
		}
		slot := results
		results = nil
		if next := bytes.Index(slot[len(jSlot):], jSlot); next >= 0 {
			slot, results = slot[:len(jSlot)+next], slot[len(jSlot)+next:]
		}
		if !bytes.HasPrefix(slot, jSlotOK) {
			return fmt.Errorf("batch sub-command %d failed: %.300q", i, slot)
		}
		if !bytes.Contains(slot, w) {
			return fmt.Errorf("batch sub-command %d: result %.300q lacks %q", i, slot, w)
		}
	}
	if bytes.HasPrefix(results, jSlot) {
		return fmt.Errorf("response %.300q: more results than %d sub-commands", line, len(r.subWants))
	}
	if r.stopped && !stopped {
		return fmt.Errorf("response %.200q: no stopped event with reason breakpoint", line)
	}
	if r.launch && !bytes.Contains(head, jSession) {
		return fmt.Errorf("launch response %.200q carries no session ID", line)
	}
	return nil
}

// rawConn is one client connection of the raw client.
type rawConn struct {
	c  net.Conn
	br *bufio.Reader
}

// rawReadBuf bounds the frames the raw client reads; every response of
// the workloads is far smaller.
const rawReadBuf = 64 << 10

// rawDial connects to addr, reading through br (reset onto the new
// connection) when it is non-nil, so per-op connections reuse one buffer.
func rawDial(addr string, br *bufio.Reader) (*rawConn, error) {
	c, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	if br == nil {
		br = bufio.NewReaderSize(c, rawReadBuf)
	} else {
		br.Reset(c)
	}
	return &rawConn{c: c, br: br}, nil
}

// do sends one request and reads frames up to its response, checking
// them. tr, when non-nil, is told when the request goes out.
func (rc *rawConn) do(r *rawReq, tr *tracer) error {
	if tr != nil {
		tr.sent(r.launch)
	}
	if _, err := rc.c.Write(r.frame); err != nil {
		return err
	}
	stopped := false
	for {
		line, err := rc.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		if !bytes.Contains(line, jResponse) {
			if bytes.Contains(line, jStopped) && bytes.Contains(line, jBreakStop) {
				stopped = true
			}
			continue
		}
		if err := r.check(line, stopped); err != nil {
			return checkError{err}
		}
		return nil
	}
}

func (rc *rawConn) close() { rc.c.Close() }

// wireRaw runs one wire workload's ops with the raw client against one
// server.
type wireRaw struct {
	addr string
	sw   sweeper
	conn *rawConn // the paused connection (nil for session)
	br   *bufio.Reader
	seq  int64
}

// newWireRaw connects workload w's client to addr; for a single-connection
// workload it opens the connection and takes it to the paused state.
func newWireRaw(w string, seed uint64, addr string) (*wireRaw, error) {
	r := &wireRaw{addr: addr, sw: newSweeper(w, seed), br: bufio.NewReaderSize(nil, rawReadBuf)}
	if w == wSession {
		return r, nil
	}
	c, err := rawDial(addr, nil)
	if err != nil {
		return nil, err
	}
	r.conn = c
	if err := r.run(wireOp{reqs: setupRequests(pausedExample(w))}); err != nil {
		c.close()
		return nil, fmt.Errorf("setup: %w", err)
	}
	return r, nil
}

func (r *wireRaw) close() {
	if r.conn != nil {
		r.conn.close()
	}
}

// run executes one op outside any sweep.
func (r *wireRaw) run(op wireOp) error {
	raw, seq, err := prepare([]wireOp{op}, r.seq)
	if err != nil {
		return err
	}
	r.seq = seq
	return r.op(&raw[0], nil)
}

// warmBuilds launches every example once on a connection of its own, so
// the server has built them all before the first session op.
func (r *wireRaw) warmBuilds() error {
	for _, e := range examples {
		op := wireOp{ownConn: true, reqs: setupRequests(e.name)[:1]}
		op.reqs = append(op.reqs, request{cmd: wire.CmdDisconnect})
		if err := r.run(op); err != nil {
			return fmt.Errorf("warm-up launch of %s: %w", e.name, err)
		}
	}
	return nil
}

// sweep runs the next sweep and returns its ops (for the replicas) and
// latencies. An op that fails its checks counts as failed, with latency
// failedLatency; any other error ends the sweep.
func (r *wireRaw) sweep(tr *tracer) ([]wireOp, []time.Duration, int, error) {
	ops := r.sw.next()
	raw, seq, err := prepare(ops, r.seq)
	if err != nil {
		return nil, nil, 0, err
	}
	r.seq = seq
	lat := make([]time.Duration, 0, len(raw))
	failed := 0
	for i := range raw {
		t0 := time.Now()
		err := r.op(&raw[i], tr)
		d := time.Since(t0)
		if err != nil {
			if !errors.As(err, new(checkError)) {
				return ops, lat, failed, err
			}
			fmt.Fprintf(os.Stderr, "perfbench: op failed: %v\n", err)
			failed++
			d = failedLatency
		}
		lat = append(lat, d)
	}
	return ops, lat, failed, nil
}

func (r *wireRaw) op(op *rawOp, tr *tracer) error {
	c := r.conn
	if op.ownConn {
		var err error
		if c, err = rawDial(r.addr, r.br); err != nil {
			return err
		}
		defer c.close()
	}
	for i := range op.reqs {
		if err := c.do(&op.reqs[i], tr); err != nil {
			return err
		}
	}
	return nil
}

// tracer holds the spans and exact counts the traced server's
// connections record, summed over every connection. The client goroutine
// reads them between sweeps, after waiting out any write still being
// accounted.
type tracer struct {
	base time.Time

	sendStart atomic.Int64 // ns since base: the client began sending the current request
	isLaunch  atomic.Bool  // the current request is a launch
	lastRead  atomic.Int64 // ns since base: the last request Read returned
	inWrite   atomic.Int32
	capturing atomic.Bool
	capMu     sync.Mutex
	capIn     []byte // frames the server read, while capturing
	capOut    []byte // frames the server wrote, while capturing
	reads     atomic.Int64
	writes    atomic.Int64
	bytesIn   atomic.Int64
	bytesOut  atomic.Int64
	framesIn  atomic.Int64
	framesOut atomic.Int64
	readNs    atomic.Int64 // request delivery: client send start to server Read return
	writeNs   atomic.Int64 // time inside server Write calls
	handleNs  atomic.Int64 // request Read return to response Write start
	launchNs  atomic.Int64 // handleNs of launch requests
	launches  atomic.Int64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) sent(launch bool) {
	t.isLaunch.Store(launch)
	t.sendStart.Store(t.now())
}

// counts is a snapshot of the tracer's counters.
type counts struct {
	reads, writes, bytesIn, bytesOut, framesIn, framesOut int64
	readNs, writeNs, handleNs, launchNs, launches         int64
}

func (t *tracer) snapshot() counts {
	for t.inWrite.Load() != 0 {
		time.Sleep(10 * time.Microsecond)
	}
	return counts{
		reads: t.reads.Load(), writes: t.writes.Load(),
		bytesIn: t.bytesIn.Load(), bytesOut: t.bytesOut.Load(),
		framesIn: t.framesIn.Load(), framesOut: t.framesOut.Load(),
		readNs: t.readNs.Load(), writeNs: t.writeNs.Load(),
		handleNs: t.handleNs.Load(), launchNs: t.launchNs.Load(), launches: t.launches.Load(),
	}
}

func (c counts) add(o counts) counts {
	return counts{
		reads: c.reads + o.reads, writes: c.writes + o.writes,
		bytesIn: c.bytesIn + o.bytesIn, bytesOut: c.bytesOut + o.bytesOut,
		framesIn: c.framesIn + o.framesIn, framesOut: c.framesOut + o.framesOut,
		readNs: c.readNs + o.readNs, writeNs: c.writeNs + o.writeNs,
		handleNs: c.handleNs + o.handleNs, launchNs: c.launchNs + o.launchNs, launches: c.launches + o.launches,
	}
}

func (c counts) sub(o counts) counts {
	return counts{
		reads: c.reads - o.reads, writes: c.writes - o.writes,
		bytesIn: c.bytesIn - o.bytesIn, bytesOut: c.bytesOut - o.bytesOut,
		framesIn: c.framesIn - o.framesIn, framesOut: c.framesOut - o.framesOut,
		readNs: c.readNs - o.readNs, writeNs: c.writeNs - o.writeNs,
		handleNs: c.handleNs - o.handleNs, launchNs: c.launchNs - o.launchNs, launches: c.launches - o.launches,
	}
}

// tracedListener wraps every accepted connection in a tracedConn.
type tracedListener struct {
	net.Listener
	tr *tracer
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, tr: l.tr}, nil
}

// tracedConn records the server side of one connection: every Read and
// Write, their bytes and frames, and the handle span of every request.
type tracedConn struct {
	net.Conn
	tr *tracer
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		t := c.tr
		end := t.now()
		t.reads.Add(1)
		t.bytesIn.Add(int64(n))
		t.framesIn.Add(int64(bytes.Count(p[:n], []byte{'\n'})))
		t.readNs.Add(end - t.sendStart.Load())
		t.lastRead.Store(end)
		if t.capturing.Load() {
			t.capMu.Lock()
			t.capIn = append(t.capIn, p[:n]...)
			t.capMu.Unlock()
		}
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	t := c.tr
	t.inWrite.Add(1)
	defer t.inWrite.Add(-1)
	start := t.now()
	// Load before writing: once the response is out, the client's next
	// request can move these on.
	lastRead, launch := t.lastRead.Load(), t.isLaunch.Load()
	n, err := c.Conn.Write(p)
	end := t.now()
	t.writes.Add(1)
	t.bytesOut.Add(int64(n))
	t.framesOut.Add(int64(bytes.Count(p[:n], []byte{'\n'})))
	t.writeNs.Add(end - start)
	if bytes.Contains(p, jResponse) {
		h := start - lastRead
		t.handleNs.Add(h)
		if launch {
			t.launchNs.Add(h)
			t.launches.Add(1)
		}
	}
	if t.capturing.Load() {
		t.capMu.Lock()
		t.capOut = append(t.capOut, p[:n]...)
		t.capMu.Unlock()
	}
	return n, err
}
