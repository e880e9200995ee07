// Package dwarfish is the mini-C ecosystem's standard debugging
// information format — the role DWARF plays for native code in the paper.
// The compiler produces it when building "with -g"; the debugger consumes
// only this serialised form (never the compiler's in-memory structures) to
// map execution state (function index + program counter, the VM's $rip) to
// source lines, and variable names to frame slots.
//
// D2X deliberately does NOT extend this format. The paper's core argument
// is that debug-info formats are rigid and hard to extend (the DWARF 5
// standard runs 459 pages), so DSL context should ride in the program
// itself instead. dwarfish therefore stays strictly at the generated-code
// level; everything DSL-specific lives in the D2X tables.
package dwarfish

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// Magic identifies serialised dwarfish blobs; Version is bumped on any
// incompatible change.
const (
	Magic   = "DWFx"
	Version = 1
)

// VarLoc locates one named variable in a function frame.
type VarLoc struct {
	Name string
	Slot int
	Type string // surface type syntax, for `info locals` display
	// Param marks function parameters (slots [0, NumParams)).
	Param bool
}

// LineEntry maps one program counter to a source line.
type LineEntry struct {
	PC   int
	Line int
	Stmt bool // true when PC begins a source statement (breakpoint target)
}

// FuncInfo is the debug record of one function.
type FuncInfo struct {
	Name      string
	FuncIndex int
	DeclLine  int
	File      string
	Vars      []VarLoc
	Lines     []LineEntry
}

// VarByName returns the variable record with the given name. When a name
// is shadowed (multiple slots share it), the highest slot — the innermost
// declaration — wins, matching debugger convention.
func (f *FuncInfo) VarByName(name string) (VarLoc, bool) {
	found := VarLoc{Slot: -1}
	for _, v := range f.Vars {
		if v.Name == name && v.Slot > found.Slot {
			found = v
		}
	}
	return found, found.Slot >= 0
}

// LineOf returns the source line for a program counter, using the last
// line entry at or before pc, like DWARF line programs do.
func (f *FuncInfo) LineOf(pc int) int {
	line := 0
	for _, e := range f.Lines {
		if e.PC > pc {
			break
		}
		line = e.Line
	}
	return line
}

// LineRange returns the inclusive source-line span covered by the
// function: its declaration line through the last line-table entry.
// ok is false when the function has no line entries at all.
func (f *FuncInfo) LineRange() (lo, hi int, ok bool) {
	if len(f.Lines) == 0 {
		return 0, 0, false
	}
	lo, hi = f.DeclLine, f.DeclLine
	for _, e := range f.Lines {
		if e.Line < lo {
			lo = e.Line
		}
		if e.Line > hi {
			hi = e.Line
		}
	}
	return lo, hi, true
}

// StmtPCs returns the statement-start PCs on the given line.
func (f *FuncInfo) StmtPCs(line int) []int {
	var pcs []int
	for _, e := range f.Lines {
		if e.Stmt && e.Line == line {
			pcs = append(pcs, e.PC)
		}
	}
	return pcs
}

// Info is the complete debug information of one compiled program.
type Info struct {
	File  string // generated source file name
	Funcs []FuncInfo

	byName map[string]int
	// byIdx is a dense FuncIndex → Funcs position table. Compiler
	// function indices are small and near-dense, so a slice beats a map
	// and makes FuncByIndex a bounds check + load on the frame-walk path.
	byIdx []int32
	// lineSites maps a source line to its statement-start sites across
	// all functions, sorted by (FuncIndex, PC). Built once alongside the
	// name index; the slices are shared and must not be mutated.
	lineSites map[int][]BreakpointSite
}

// FuncByName returns the record of the named function, or nil.
func (in *Info) FuncByName(name string) *FuncInfo {
	in.ensureIndex()
	if i, ok := in.byName[name]; ok {
		return &in.Funcs[i]
	}
	return nil
}

// FuncByIndex returns the record of the function with the given compiler
// index, or nil.
func (in *Info) FuncByIndex(idx int) *FuncInfo {
	in.ensureIndex()
	if idx < 0 || idx >= len(in.byIdx) {
		return nil
	}
	if i := in.byIdx[idx]; i >= 0 {
		return &in.Funcs[i]
	}
	return nil
}

func (in *Info) ensureIndex() {
	if in.byName != nil {
		return
	}
	maxIdx := -1
	for i := range in.Funcs {
		if fi := in.Funcs[i].FuncIndex; fi > maxIdx {
			maxIdx = fi
		}
	}
	byIdx := make([]int32, maxIdx+1)
	for i := range byIdx {
		byIdx[i] = -1
	}
	byName := make(map[string]int, len(in.Funcs))
	lineSites := make(map[int][]BreakpointSite)
	for i := range in.Funcs {
		f := &in.Funcs[i]
		byName[f.Name] = i
		if f.FuncIndex >= 0 && byIdx[f.FuncIndex] < 0 {
			byIdx[f.FuncIndex] = int32(i)
		}
	}
	// Functions are visited in FuncIndex order so each line's site list
	// comes out sorted by (FuncIndex, PC) without a per-query sort.
	for idx := 0; idx <= maxIdx; idx++ {
		pos := byIdx[idx]
		if pos < 0 {
			continue
		}
		f := &in.Funcs[pos]
		for _, e := range f.Lines {
			if !e.Stmt {
				continue
			}
			lineSites[e.Line] = append(lineSites[e.Line], BreakpointSite{
				Func: f.Name,
				Addr: Addr{FuncIndex: f.FuncIndex, PC: e.PC},
				Line: e.Line,
			})
		}
	}
	in.byIdx = byIdx
	in.lineSites = lineSites
	in.byName = byName // publish last: byName != nil marks the index ready
}

// Addr identifies one executable location: a function and a program
// counter within it. It is the structured form of the VM's $rip.
type Addr struct {
	FuncIndex int
	PC        int
}

// EncodeAddr packs an Addr into a single int64 in the way the debugger's
// $rip meta-variable exposes it to called functions. The paper passes the
// raw x86 %rip the same way.
//
//d2x:noalloc
func EncodeAddr(a Addr) int64 {
	return int64(a.FuncIndex)<<32 | int64(uint32(a.PC))
}

// DecodeAddr unpacks an int64-encoded address.
//
//d2x:noalloc
func DecodeAddr(v int64) Addr {
	return Addr{FuncIndex: int(v >> 32), PC: int(uint32(v))}
}

// LineFor maps an address to (file, line), the debugger's stage-1 mapping.
func (in *Info) LineFor(a Addr) (string, int, bool) {
	f := in.FuncByIndex(a.FuncIndex)
	if f == nil {
		return "", 0, false
	}
	line := f.LineOf(a.PC)
	if line == 0 {
		return "", 0, false
	}
	return in.File, line, true
}

// BreakpointSite is one concrete machine location a source breakpoint
// expands to.
type BreakpointSite struct {
	Func string
	Addr Addr
	Line int
}

// SitesForLine returns every statement-start location on the given source
// line across all functions, sorted by function then PC. A single source
// line can map to several sites (e.g. a UDF inlined per call site), which
// is exactly the situation D2X's xbreak deals with one level up.
//
// The returned slice is shared with the Info's precomputed index and
// must be treated as immutable by callers.
func (in *Info) SitesForLine(line int) []BreakpointSite {
	in.ensureIndex()
	return in.lineSites[line]
}

// HasStmtOnLine reports whether any function has a statement-start PC on
// the given source line — len(SitesForLine(line)) > 0 without touching
// the site slice. It is the predicate the breakpoint-planning path uses
// to filter candidate generated lines.
//
//d2x:noalloc
func (in *Info) HasStmtOnLine(line int) bool {
	in.ensureIndex() //d2xvet:ignore noalloc the index is built once per Info and memoized
	return len(in.lineSites[line]) > 0
}

// VisitLineRanges calls fn once per maximal PC range of each function
// that maps to a single source line, functions in FuncIndex order and
// ranges in increasing PC order. A range is [loPC, hiPC); the final
// range of each function is open-ended and reported with hiPC = -1.
// The decomposition reproduces LineOf exactly: PCs below the first line
// entry are not covered (LineOf reports line 0 there), and when several
// entries share a PC the last one wins. Consumers such as the fused
// rip→context index use this to precompute stage-1 resolution without
// N×LineOf probes.
func (in *Info) VisitLineRanges(fn func(f *FuncInfo, loPC, hiPC, line int)) {
	in.ensureIndex()
	for idx := 0; idx < len(in.byIdx); idx++ {
		pos := in.byIdx[idx]
		if pos < 0 {
			continue
		}
		f := &in.Funcs[pos]
		n := len(f.Lines)
		for i := 0; i < n; i++ {
			e := f.Lines[i]
			if i+1 < n {
				next := f.Lines[i+1].PC
				if next == e.PC {
					continue // shadowed entry: the later one wins, as in LineOf
				}
				fn(f, e.PC, next, e.Line)
			} else {
				fn(f, e.PC, -1, e.Line)
			}
		}
	}
}

// SitesForFunc returns the entry breakpoint site of the named function:
// its first statement-start PC.
func (in *Info) SitesForFunc(name string) []BreakpointSite {
	f := in.FuncByName(name)
	if f == nil {
		return nil
	}
	for _, e := range f.Lines {
		if e.Stmt {
			return []BreakpointSite{{
				Func: f.Name,
				Addr: Addr{FuncIndex: f.FuncIndex, PC: e.PC},
				Line: e.Line,
			}}
		}
	}
	return nil
}

// ---- Serialisation ----

// Encode serialises the debug info to its binary wire format.
func (in *Info) Encode() []byte {
	var b bytes.Buffer
	b.WriteString(Magic)
	writeUvarint(&b, Version)
	writeString(&b, in.File)
	writeUvarint(&b, uint64(len(in.Funcs)))
	for _, f := range in.Funcs {
		writeString(&b, f.Name)
		writeUvarint(&b, uint64(f.FuncIndex))
		writeUvarint(&b, uint64(f.DeclLine))
		writeString(&b, f.File)
		writeUvarint(&b, uint64(len(f.Vars)))
		for _, v := range f.Vars {
			writeString(&b, v.Name)
			writeUvarint(&b, uint64(v.Slot))
			writeString(&b, v.Type)
			writeBool(&b, v.Param)
		}
		writeUvarint(&b, uint64(len(f.Lines)))
		// Delta-encode the line table, the same trick DWARF line programs
		// use to stay compact.
		prevPC, prevLine := 0, 0
		for _, e := range f.Lines {
			writeUvarint(&b, uint64(e.PC-prevPC))
			writeVarint(&b, int64(e.Line-prevLine))
			writeBool(&b, e.Stmt)
			prevPC, prevLine = e.PC, e.Line
		}
	}
	return b.Bytes()
}

// Decode parses a binary debug-info blob. All strings are interned
// while decoding: the wire format repeats file names and type spellings
// per function and per variable, and interning collapses each distinct
// spelling to a single heap object. Consumers (the fused rip→context
// index, the render path) can then hold and compare these strings
// without copying.
func Decode(data []byte) (*Info, error) {
	r := bytes.NewReader(data)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != Magic {
		return nil, fmt.Errorf("dwarfish: bad magic")
	}
	ver, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	if ver != Version {
		return nil, fmt.Errorf("dwarfish: unsupported version %d", ver)
	}
	tab := make(Interner, 32)
	var scratch []byte
	readString := func(r *bytes.Reader) (string, error) {
		return readStringInterned(r, &scratch, tab)
	}
	in := &Info{}
	if in.File, err = readString(r); err != nil {
		return nil, err
	}
	nf, err := readUvarint(r)
	if err != nil {
		return nil, err
	}
	if nf > maxCount(r, minFuncBytes) {
		return nil, fmt.Errorf("dwarfish: corrupt function count %d", nf)
	}
	in.Funcs = make([]FuncInfo, nf)
	for i := range in.Funcs {
		f := &in.Funcs[i]
		if f.Name, err = readString(r); err != nil {
			return nil, err
		}
		fi, err := readUvarint(r)
		if err != nil {
			return nil, err
		}
		// The name index is a dense table over FuncIndex, so an index past
		// the function count would size it by a number the blob only claims.
		if fi >= nf {
			return nil, fmt.Errorf("dwarfish: corrupt function index %d of %d functions", fi, nf)
		}
		f.FuncIndex = int(fi)
		dl, err := readUvarint(r)
		if err != nil {
			return nil, err
		}
		f.DeclLine = int(dl)
		if f.File, err = readString(r); err != nil {
			return nil, err
		}
		nv, err := readUvarint(r)
		if err != nil {
			return nil, err
		}
		if nv > maxCount(r, minVarBytes) {
			return nil, fmt.Errorf("dwarfish: corrupt var count %d", nv)
		}
		f.Vars = make([]VarLoc, nv)
		for j := range f.Vars {
			v := &f.Vars[j]
			if v.Name, err = readString(r); err != nil {
				return nil, err
			}
			slot, err := readUvarint(r)
			if err != nil {
				return nil, err
			}
			v.Slot = int(slot)
			if v.Type, err = readString(r); err != nil {
				return nil, err
			}
			if v.Param, err = readBool(r); err != nil {
				return nil, err
			}
		}
		nl, err := readUvarint(r)
		if err != nil {
			return nil, err
		}
		if nl > maxCount(r, minLineBytes) {
			return nil, fmt.Errorf("dwarfish: corrupt line count %d", nl)
		}
		f.Lines = make([]LineEntry, nl)
		prevPC, prevLine := 0, 0
		for j := range f.Lines {
			dpc, err := readUvarint(r)
			if err != nil {
				return nil, err
			}
			dline, err := readVarint(r)
			if err != nil {
				return nil, err
			}
			stmt, err := readBool(r)
			if err != nil {
				return nil, err
			}
			prevPC += int(dpc)
			prevLine += int(dline)
			f.Lines[j] = LineEntry{PC: prevPC, Line: prevLine, Stmt: stmt}
		}
	}
	// Build the name index now so a decoded Info is immutable from here on
	// and safe to share between concurrent debug sessions without locks.
	in.ensureIndex()
	return in, nil
}

// The smallest encodings of one function record (empty name and file,
// one-byte index and decl line, zero var and line counts), one variable
// record (empty name and type, one-byte slot, param flag) and one line
// entry (one-byte PC and line deltas, stmt flag).
const (
	minFuncBytes = 6
	minVarBytes  = 4
	minLineBytes = 3
)

// maxCount bounds a declared element count by the bytes left in the
// blob, so a corrupt count fails before Decode allocates for it: memory
// stays proportional to the input, whatever the header claims.
func maxCount(r *bytes.Reader, minBytes int) uint64 {
	return uint64(r.Len() / minBytes)
}

func writeUvarint(b *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	b.Write(tmp[:n])
}

func writeVarint(b *bytes.Buffer, v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	b.Write(tmp[:n])
}

func writeString(b *bytes.Buffer, s string) {
	writeUvarint(b, uint64(len(s)))
	b.WriteString(s)
}

func writeBool(b *bytes.Buffer, v bool) {
	if v {
		b.WriteByte(1)
	} else {
		b.WriteByte(0)
	}
}

func readUvarint(r *bytes.Reader) (uint64, error) { return binary.ReadUvarint(r) }
func readVarint(r *bytes.Reader) (int64, error)   { return binary.ReadVarint(r) }

// Interner deduplicates strings: each distinct spelling is stored once
// and every later occurrence returns the stored copy. Decode uses one
// per blob; d2xenc shares the same trick for its string tables.
type Interner map[string]string

// Intern returns the canonical copy of s, storing s on first sight.
func (t Interner) Intern(s string) string {
	if v, ok := t[s]; ok {
		return v
	}
	t[s] = s
	return s
}

// readStringInterned reads a length-prefixed string into a reused
// scratch buffer and interns it. The map lookup keyed by string(buf)
// does not allocate (the compiler elides the conversion), so repeated
// spellings cost zero heap after their first occurrence.
func readStringInterned(r *bytes.Reader, scratch *[]byte, tab Interner) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > uint64(r.Len()) {
		return "", fmt.Errorf("dwarfish: corrupt string length %d", n)
	}
	if uint64(cap(*scratch)) < n {
		*scratch = make([]byte, n)
	}
	buf := (*scratch)[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	if v, ok := tab[string(buf)]; ok {
		return v, nil
	}
	s := string(buf)
	tab[s] = s
	return s, nil
}

func readBool(r *bytes.Reader) (bool, error) {
	c, err := r.ReadByte()
	if err != nil {
		return false, err
	}
	return c != 0, nil
}
