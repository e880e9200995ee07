package dwarfish

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"d2x/internal/minic"
)

const sampleSrc = `func int add(int a, int b) {
	int sum = a + b;
	return sum;
}
func int main() {
	int x = add(1, 2);
	int y = add(x, 3);
	return y;
}
`

func buildSample(t *testing.T) (*minic.Program, *Info) {
	t.Helper()
	prog, err := minic.Compile("gen.c", sampleSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	return prog, Build(prog)
}

func TestBuildFunctions(t *testing.T) {
	_, info := buildSample(t)
	add := info.FuncByName("add")
	if add == nil {
		t.Fatal("no debug record for add")
	}
	if add.DeclLine != 1 {
		t.Errorf("add.DeclLine = %d, want 1", add.DeclLine)
	}
	if v, ok := add.VarByName("sum"); !ok || v.Type != "int" || v.Param {
		t.Errorf("sum var = %+v, ok=%v", v, ok)
	}
	if v, ok := add.VarByName("a"); !ok || !v.Param || v.Slot != 0 {
		t.Errorf("a var = %+v, ok=%v", v, ok)
	}
	if info.FuncByName("missing") != nil {
		t.Error("FuncByName returned a record for a missing function")
	}
}

func TestLineMapping(t *testing.T) {
	_, info := buildSample(t)
	add := info.FuncByName("add")
	// Line 2 is `int sum = a + b;` — it must have at least one statement PC
	// and LineOf must invert it.
	pcs := add.StmtPCs(2)
	if len(pcs) == 0 {
		t.Fatal("no statement PCs for line 2")
	}
	for _, pc := range pcs {
		if got := add.LineOf(pc); got != 2 {
			t.Errorf("LineOf(%d) = %d, want 2", pc, got)
		}
	}
	file, line, ok := info.LineFor(Addr{FuncIndex: add.FuncIndex, PC: pcs[0]})
	if !ok || file != "gen.c" || line != 2 {
		t.Errorf("LineFor = %q:%d ok=%v", file, line, ok)
	}
}

func TestSitesForLine(t *testing.T) {
	_, info := buildSample(t)
	sites := info.SitesForLine(6) // `int y = add(x, 3);`
	if len(sites) != 1 {
		t.Fatalf("sites for line 6 = %d, want 1", len(sites))
	}
	if sites[0].Func != "main" {
		t.Errorf("site func = %q, want main", sites[0].Func)
	}
	if got := info.SitesForLine(9999); len(got) != 0 {
		t.Errorf("sites for absent line = %v", got)
	}
}

func TestSitesForFunc(t *testing.T) {
	_, info := buildSample(t)
	sites := info.SitesForFunc("add")
	if len(sites) != 1 || sites[0].Line != 2 {
		t.Fatalf("entry site for add = %+v, want line 2", sites)
	}
	if got := info.SitesForFunc("nope"); got != nil {
		t.Errorf("sites for absent func = %v", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	_, info := buildSample(t)
	blob := info.Encode()
	back, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.File != info.File || len(back.Funcs) != len(info.Funcs) {
		t.Fatalf("decoded shape mismatch: %+v", back)
	}
	for i := range info.Funcs {
		a, b := info.Funcs[i], back.Funcs[i]
		if a.Name != b.Name || a.FuncIndex != b.FuncIndex || a.DeclLine != b.DeclLine {
			t.Errorf("func %d header mismatch: %+v vs %+v", i, a, b)
		}
		if len(a.Vars) != len(b.Vars) || len(a.Lines) != len(b.Lines) {
			t.Fatalf("func %d table size mismatch", i)
		}
		for j := range a.Vars {
			if a.Vars[j] != b.Vars[j] {
				t.Errorf("var %d/%d mismatch: %+v vs %+v", i, j, a.Vars[j], b.Vars[j])
			}
		}
		for j := range a.Lines {
			if a.Lines[j] != b.Lines[j] {
				t.Errorf("line %d/%d mismatch: %+v vs %+v", i, j, a.Lines[j], b.Lines[j])
			}
		}
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	if _, err := Decode([]byte("not a dwarfish blob")); err == nil {
		t.Error("decode of garbage succeeded")
	}
	if _, err := Decode(nil); err == nil {
		t.Error("decode of empty input succeeded")
	}
	_, info := buildSample(t)
	blob := info.Encode()
	if _, err := Decode(blob[:len(blob)/2]); err == nil {
		t.Error("decode of truncated blob succeeded")
	}
}

// TestAddrEncodingProperty: EncodeAddr/DecodeAddr are inverses for all
// plausible function indexes and PCs.
func TestAddrEncodingProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := Addr{FuncIndex: r.Intn(1 << 20), PC: r.Intn(1 << 28)}
		return DecodeAddr(EncodeAddr(a)) == a
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestLineTableProperty: for every instruction of every function in a real
// compiled program, LineOf agrees with the compiler's own line record.
func TestLineTableProperty(t *testing.T) {
	prog, info := buildSample(t)
	for idx := range prog.Funcs {
		fc := prog.Code[idx]
		fi := info.FuncByIndex(idx)
		if fi == nil {
			t.Fatalf("no debug info for func %d", idx)
		}
		for pc, in := range fc.Instrs {
			if got := fi.LineOf(pc); got != in.Line {
				t.Errorf("%s pc %d: LineOf = %d, compiler line = %d", fi.Name, pc, got, in.Line)
			}
		}
	}
}

func TestVarShadowingPrefersInnermost(t *testing.T) {
	src := `func int main() {
	int v = 1;
	if (v == 1) {
		int x = 2;
		v = x;
	}
	int x = 3;
	return v + x;
}
`
	prog, err := minic.Compile("gen.c", src, nil)
	if err != nil {
		t.Fatal(err)
	}
	info := Build(prog)
	mainFn := info.FuncByName("main")
	v, ok := mainFn.VarByName("x")
	if !ok {
		t.Fatal("no var x")
	}
	// Two `x` slots exist; the record must pick the later (higher) slot.
	count := 0
	for _, rec := range mainFn.Vars {
		if rec.Name == "x" {
			count++
			if rec.Slot > v.Slot {
				t.Errorf("VarByName picked slot %d, a later one %d exists", v.Slot, rec.Slot)
			}
		}
	}
	if count != 2 {
		t.Fatalf("expected 2 x records, found %d", count)
	}
}

// overCountBlob is a 16-byte blob that declares one function with no
// vars and 2^26-1 line entries, then ends.
var overCountBlob = []byte{'D', 'W', 'F', 'x', 1, 0, 1, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x1f}

// TestDecodeBoundsCountsByInput: declared counts are checked against the
// bytes left in the blob before anything is sized by them, so a short
// blob claiming a huge table fails cheaply instead of allocating first
// (2^26 line entries would be 1.5 GiB) and hitting EOF after.
func TestDecodeBoundsCountsByInput(t *testing.T) {
	for _, tc := range []struct {
		name string
		blob []byte
	}{
		{"line count", overCountBlob},
		{"var count", []byte{'D', 'W', 'F', 'x', 1, 0, 1, 0, 0, 0, 0, 0xff, 0xff, 0x3f}},
		{"function count", []byte{'D', 'W', 'F', 'x', 1, 0, 0xff, 0xff, 0x3f}},
		{"function index", []byte{'D', 'W', 'F', 'x', 1, 0, 1, 0, 0x80, 0x80, 0x80, 0x08, 0, 0, 0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			_, err := Decode(tc.blob)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("decode of a corrupt blob succeeded")
			}
			if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
				t.Errorf("decode allocated %d bytes before failing (%v), want < 1 MiB", d, err)
			}
		})
	}
}

// FuzzDecode: Decode never panics on arbitrary input, and whatever it
// accepts re-encodes stably — the encoding of a decoded blob decodes
// again and encodes to the same bytes.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		info, err := Decode(data)
		if err != nil {
			return
		}
		e := info.Encode()
		back, err := Decode(e)
		if err != nil {
			t.Fatalf("re-decode of an encoded blob failed: %v", err)
		}
		if got := back.Encode(); !bytes.Equal(got, e) {
			t.Fatalf("re-encoding unstable:\nfirst  %x\nsecond %x", e, got)
		}
	})
}
