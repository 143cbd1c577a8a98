package lang_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/linker"
	"repro/internal/mem"
	"repro/internal/workload"
)

// run compiles sources, links them, and runs entry on all three machine
// configurations, checking the results and output agree everywhere.
func run(t *testing.T, sources map[string]string, module, proc string, args []mem.Word) ([]mem.Word, []mem.Word) {
	t.Helper()
	mods, err := lang.CompileAll(sources)
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := linker.Link(mods, module, proc, linker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	configs := map[string]core.Config{
		"mesa": core.ConfigMesa, "fastfetch": core.ConfigFastFetch, "fastcalls": core.ConfigFastCalls,
	}
	var res, out []mem.Word
	first := true
	for name, cfg := range configs {
		cfg.HeapCheck = true
		m, err := core.New(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Call(prog.Entry, args...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if first {
			res, out = r, m.Output
			first = false
			continue
		}
		if len(r) != len(res) {
			t.Fatalf("%s: results differ: %v vs %v", name, r, res)
		}
		for i := range r {
			if r[i] != res[i] {
				t.Fatalf("%s: results differ: %v vs %v", name, r, res)
			}
		}
		if len(m.Output) != len(out) {
			t.Fatalf("%s: output differs: %v vs %v", name, m.Output, out)
		}
		for i := range out {
			if m.Output[i] != out[i] {
				t.Fatalf("%s: output differs: %v vs %v", name, m.Output, out)
			}
		}
	}
	return res, out
}

func one(t *testing.T, src, module, proc string, args ...mem.Word) ([]mem.Word, []mem.Word) {
	t.Helper()
	return run(t, map[string]string{module: src}, module, proc, args)
}

func TestFibSource(t *testing.T) {
	src := `
module fib;
proc fib(n) {
  if (n < 2) { return n; }
  return fib(n-1) + fib(n-2);
}
proc main(n) { return fib(n); }
`
	res, _ := one(t, src, "fib", "main", 15)
	if len(res) != 1 || res[0] != 610 {
		t.Fatalf("fib(15) = %v", res)
	}
}

func TestNestedCallSpills(t *testing.T) {
	// §5.2: f[g[], h[]] requires g's result to be saved before h is called.
	src := `
module nest;
proc g(x) { return x + 1; }
proc h(x) { return x * 2; }
proc f(a, b) { return a * 100 + b; }
proc main() {
  return f(g(1), h(2)) + g(3);
}
`
	res, _ := one(t, src, "nest", "main")
	// f(2, 4) + 4 = 204 + 4 = 208
	if res[0] != 208 {
		t.Fatalf("main() = %v, want 208", res)
	}
}

func TestWhileGlobalsConsts(t *testing.T) {
	src := `
module loops;
const STEP = 3;
var total = 0;
proc main(n) {
  var i = 0;
  while (i < n) {
    total = total + STEP;
    i = i + 1;
  }
  return total;
}
`
	res, _ := one(t, src, "loops", "main", 10)
	if res[0] != 30 {
		t.Fatalf("main(10) = %v", res)
	}
}

func TestShortCircuit(t *testing.T) {
	src := `
module sc;
var calls = 0;
proc bump(v) { calls = calls + 1; return v; }
proc main() {
  var a;
  calls = 0;
  a = 0;
  if (bump(0) != 0 && bump(1) != 0) { a = 1; }
  out(calls);            // 1: right side skipped
  calls = 0;
  if (bump(1) != 0 || bump(1) != 0) { a = 2; }
  out(calls);            // 1: right side skipped
  calls = 0;
  if (bump(1) != 0 && bump(0) == 0) { a = 3; }
  out(calls);            // 2: both sides
  return a;
}
`
	res, out := one(t, src, "sc", "main")
	if res[0] != 3 {
		t.Fatalf("main() = %v", res)
	}
	if len(out) != 3 || out[0] != 1 || out[1] != 1 || out[2] != 2 {
		t.Fatalf("out = %v", out)
	}
}

func TestBooleanValuesAndUnary(t *testing.T) {
	src := `
module boolv;
proc main(x) {
  var b = x > 3;
  var c = !b;
  var d = -x;
  var e = ~x;
  return b * 1000 + c * 100 + (d & 0xFF) + (e & 0xF);
}
`
	res, _ := one(t, src, "boolv", "main", 5)
	// b=1, c=0, d=-5 (0xFB=251)... 1000 + 0 + 251 + (~5=0xFFFA & 0xF = 10)
	if res[0] != 1000+251+10 {
		t.Fatalf("main(5) = %v, want %d", res, 1000+251+10)
	}
}

func TestCrossModuleCalls(t *testing.T) {
	sources := map[string]string{
		"mathx": `
module mathx;
proc square(x) { return x * x; }
proc cube(x) { return x * square(x); }
`,
		"main": `
module main;
import mathx;
proc main(n) { return mathx.cube(n) + mathx.square(n); }
`,
	}
	res, _ := run(t, sources, "main", "main", []mem.Word{4})
	if res[0] != 64+16 {
		t.Fatalf("main(4) = %v", res)
	}
}

func TestMultipleResults(t *testing.T) {
	src := `
module divmod;
proc divmod(a, b) { return a / b, a % b; }
proc main(a, b) {
  var q, r;
  q, r = divmod(a, b);
  return q * 100 + r;
}
`
	res, _ := one(t, src, "divmod", "main", 47, 10)
	if res[0] != 407 {
		t.Fatalf("main(47,10) = %v", res)
	}
}

func TestPointersAndRecords(t *testing.T) {
	src := `
module ptrs;
proc sum3(p) { return load(p) + load(p+1) + load(p+2); }
proc main() {
  var r = alloc(8);
  var x = 7;
  var px = &x;
  store(r, 10);
  store(r+1, 20);
  store(r+2, 30);
  store(px, 9);
  var s = sum3(r) + x;
  dealloc(r);
  return s;
}
`
	res, _ := one(t, src, "ptrs", "main")
	if res[0] != 69 {
		t.Fatalf("main() = %v, want 69", res)
	}
}

func TestInsertionSortWithHeapRecord(t *testing.T) {
	src := `
module sortm;
proc sort(a, n) {
  var i = 1;
  while (i < n) {
    var key = load(a + i);
    var j = i - 1;
    while (j >= 0 && load(a + j) > key) {
      store(a + j + 1, load(a + j));
      j = j - 1;
    }
    store(a + j + 1, key);
    i = i + 1;
  }
  return 0;
}
proc main() {
  var a = alloc(8);
  store(a, 5); store(a+1, 2); store(a+2, 9); store(a+3, 1); store(a+4, 7);
  sort(a, 5);
  var i = 0;
  while (i < 5) { out(load(a+i)); i = i + 1; }
  dealloc(a);
  return 0;
}
`
	_, out := one(t, src, "sortm", "main")
	want := []mem.Word{1, 2, 5, 7, 9}
	if len(out) != len(want) {
		t.Fatalf("out = %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}

func TestCoroutineSource(t *testing.T) {
	src := `
module coro;
proc counter(start) {
  var who = retctx();
  var v = start;
  while (1) {
    transfer(who, v);
    v = v + 1;
  }
}
proc main() {
  var c = cocreate(counter);
  var sum = 0;
  sum = sum + transfer(c, 10);   // starts counter: yields 10
  sum = sum + transfer(c, 0);    // 11
  sum = sum + transfer(c, 0);    // 12
  free(c);
  return sum;
}
`
	res, _ := one(t, src, "coro", "main")
	if res[0] != 33 {
		t.Fatalf("main() = %v, want 33", res)
	}
}

func TestSignedArithmeticSemantics(t *testing.T) {
	src := `
module signed;
proc main() {
  var a = -10;
  out(a / 3 & 0xFFFF);
  out(a % 3 & 0xFFFF);
  out((a >> 1) & 0xFFFF);
  if (a < 2) { out(1); } else { out(0); }
  return 0;
}
`
	_, out := one(t, src, "signed", "main")
	if out[0] != 0xFFFD { // -3
		t.Errorf("-10/3 = %04x", out[0])
	}
	if out[1] != 0xFFFF { // -1
		t.Errorf("-10%%3 = %04x", out[1])
	}
	if out[2] != 0xFFFB { // -5 arithmetic shift
		t.Errorf("-10>>1 = %04x", out[2])
	}
	if out[3] != 1 {
		t.Errorf("signed compare failed")
	}
}

func TestDeepExpressionSpilling(t *testing.T) {
	src := `
module deep;
proc id(x) { return x; }
proc main() {
  return id(1) + id(2) + id(3) + id(4) + id(5) + id(6) + id(7) + id(8);
}
`
	res, _ := one(t, src, "deep", "main")
	if res[0] != 36 {
		t.Fatalf("main() = %v", res)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"undefined var", `module m; proc main() { return x; }`, "undefined variable"},
		{"arity", `module m; proc f(a) { return a; } proc main() { return f(1, 2); }`, "takes 1 arguments"},
		{"dup proc", `module m; proc f() {} proc f() {}`, "duplicate procedure"},
		{"dup local", `module m; proc main() { var a; var a; }`, "duplicate local"},
		{"nonconst alloc", `module m; proc main(n) { var p = alloc(n); return 0; }`, "constant size"},
		{"mixed returns", `module m; proc f(a) { if (a) { return 1; } return 1, 2; }`, "returns 2 values here but 1"},
		{"assign const", `module m; const K = 1; proc main() { K = 2; }`, "cannot assign to constant"},
		{"addr of global", `module m; var g; proc main() { return load(&g); }`, "pointers may only be taken to locals"},
		{"missing import", `module m; proc main() { return other.f(1); }`, "unknown module"},
		{"proc ref outside cocreate", `module m; proc f() {} proc main() { out(f); }`, "undefined variable"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := lang.CompileAll(map[string]string{"m": c.src})
			if err == nil {
				t.Fatalf("compiled without error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`proc main() {}`,                          // no module header
		`module m; proc main( {}`,                 // bad params
		`module m; proc main() { if x {} }`,       // missing parens
		`module m; var 3;`,                        // bad var name
		`module m; proc main() { return 99999; }`, // literal too large
		`module m; /* unterminated`,
	}
	for _, src := range cases {
		if _, err := lang.Parse("m", src); err == nil {
			t.Errorf("parsed without error: %q", src)
		}
	}
}

func TestElseIfChain(t *testing.T) {
	src := `
module chain;
proc classify(x) {
  if (x < 10) { return 1; }
  else if (x < 100) { return 2; }
  else if (x < 1000) { return 3; }
  else { return 4; }
}
proc main() {
  out(classify(5)); out(classify(50)); out(classify(500)); out(classify(5000));
  return 0;
}
`
	_, out := one(t, src, "chain", "main")
	want := []mem.Word{1, 2, 3, 4}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v", out)
		}
	}
}

func TestLongArgumentRecords(t *testing.T) {
	// §4/§5.3: an argument record too large for the registers travels
	// through the frame heap; the receiver unpacks and frees it.
	src := `
module longargs;
proc sum12(a, b, c, d, e, f, g, h, i, j, k, l) {
  return a + b + c + d + e + f + g + h + i + j + k + l;
}
proc main() {
  var s1 = sum12(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12);
  // nested: a long-arg call as an argument of another call
  var s2 = sum12(s1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, sum12(1,1,1,1,1,1,1,1,1,1,1,1));
  return s2;
}
`
	res, _ := one(t, src, "longargs", "main")
	if res[0] != 78+10+12 { // s1 + ten 1s + inner sum12 of twelve 1s
		t.Fatalf("main() = %v, want %d", res, 78+10+12)
	}
}

func TestTrapHandlerContexts(t *testing.T) {
	// §3/§5.1: traps go through the same XFER mechanism; the handler's
	// result substitutes for the trapping operation's result, and a
	// mid-expression trap must not disturb the operands already evaluated.
	src := `
module trapt;
proc handler(code) {
  out(code);
  return 777;
}
proc main() {
  settrap(handler);
  var a = 10 / 0;         // divide trap (code 128)
  var b = trap(5);        // explicit trap
  var c = 3 + (20 / 0);   // the 3 must survive the trap
  return a + b + c;
}
`
	res, out := one(t, src, "trapt", "main")
	if res[0] != 777+777+780 {
		t.Fatalf("main() = %v, want %d", res, 777+777+780)
	}
	want := []mem.Word{128, 5, 128}
	if len(out) != 3 {
		t.Fatalf("out = %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}

func TestTrapWithoutHandlerIsFatal(t *testing.T) {
	src := `
module trapf;
proc main() { return trap(9); }
`
	mods, err := lang.CompileAll(map[string]string{"trapf": src})
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := linker.Link(mods, "trapf", "main", linker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(prog, core.ConfigMesa)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Call(prog.Entry); err == nil {
		t.Fatal("unhandled trap did not fail")
	}
}

func TestRetainedFrameSource(t *testing.T) {
	src := `
module keep;
proc keeper() {
  retain();
  return myctx();
}
proc main() {
  var c = keeper();
  free(c);
  return 42;
}
`
	res, _ := one(t, src, "keep", "main")
	if res[0] != 42 {
		t.Fatalf("main() = %v", res)
	}
}

// FuzzCompile: no source makes CompileAll panic. The corpus programs seed
// it; the nesting bound keeps deep inputs from growing the stack.
func FuzzCompile(f *testing.F) {
	for _, p := range workload.Corpus() {
		for _, src := range p.Sources {
			f.Add(src)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = lang.CompileAll(map[string]string{"m": src}) // errors are expected; only a panic fails
	})
}
