package core

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/earthsim"
	"repro/internal/olden"
)

// restructureBugPrograms are programs the parser or the McCAT Phase I
// passes (inlining, loop desugaring, goto elimination) once compiled wrongly
// or rejected, each with the output C gives it.
var restructureBugPrograms = []struct{ name, src, want string }{
	// Labels stacked on the body of an if are all stripped.
	{"stacked_labels", `
int main() {
	int x;
	x = 0;
	if (x == 0) A: B: x = 1;
	print_int(x);
	return x;
}
`, "1\n"},
	// A declaration after a continue stays in scope of its uses.
	{"continue_decl", `
int main() {
	int i;
	int t;
	t = 0;
	for (i = 0; i < 5; i++) {
		if (i == 3) continue;
		int y;
		y = i * 2;
		t = t + y;
	}
	print_int(t);
	return t;
}
`, "14\n"},
	// A declaration inside a backward goto's span stays in scope after it.
	{"backward_goto_decl", `
int main() {
	int n;
	n = 0;
top:
	n = n + 1;
	int z;
	z = n * 3;
	if (n < 3) goto top;
	print_int(z);
	return z;
}
`, "9\n"},
	// An initialized declaration after a continue keeps its initializer.
	{"continue_init_decl", `
int main() {
	int n;
	int s;
	n = 0;
	s = 0;
	while (n < 6) {
		n = n + 1;
		if (n == 2) continue;
		int w = n * 10;
		s = s + w;
	}
	print_int(s);
	return s;
}
`, "190\n"},
	// The temporary an inlined call's value lands in is declared after a
	// continue.
	{"continue_inlined_call", `
int pick(int a, int b) {
	if (a > b) return a;
	return b;
}

int main() {
	int i;
	int t;
	t = 0;
	for (i = 0; i < 12; i++) {
		if (i == 3) continue;
		t = t + pick(i, t);
	}
	print_int(t);
	return t;
}
`, "896\n"},
	// A global argument is copied, not substituted: the callee writes it.
	{"global_argument", `
int g;

int f(int p) {
	g = 5;
	return p;
}

int main() {
	g = 1;
	print_int(f(g));
	return 0;
}
`, "1\n"},
	// A caller local does not capture the global an inlined callee reads.
	{"captured_global", `
int g;

int f(int p) {
	return p + g;
}

int main() {
	int g;
	g = 100;
	print_int(f(1));
	return 0;
}
`, "1\n"},
	// Both names of a declaration with two declarators stay in scope.
	{"two_declarators", `
int main() {
	int a, b;
	a = 3;
	b = 4;
	print_int(a + b);
	return 0;
}
`, "7\n"},
	// An inlined callee's local renames only the uses it binds: the global
	// it shadows in a nested block is read after the block.
	{"nested_shadow", `
int g;

int f(int p) {
	int r;
	r = p;
	{
		int g;
		g = 4;
		r = r + g;
	}
	return r + g;
}

int main() {
	g = 100;
	print_int(f(1));
	return 0;
}
`, "105\n"},
	// The global read after the nested block is free in the callee, so a
	// caller local of its name would capture it.
	{"nested_shadow_captured", `
int g;

int setg(int v) {
	g = v;
	return 0;
}

int f(int p) {
	int r;
	r = p;
	{
		int g;
		g = 4;
		r = r + g;
	}
	return r + g;
}

int main() {
	int g;
	setg(100);
	g = 7;
	print_int(f(1) + g);
	return 0;
}
`, "112\n"},
	// A backward goto's span uses the outer x before it declares an inner
	// one; hoisting the inner declaration before the loop must not capture
	// that use.
	{"backward_goto_shadow", `
int main() {
	int x;
	int i;
	x = 5;
	i = 0;
	{
	L:
		print_int(x);
		int x;
		x = 7;
		i = i + 1;
		if (i < 3) goto L;
	}
	return 0;
}
`, "5\n5\n5\n"},
}

// TestInlineDifferential checks that inlining changes no program's output
// or return value: each Olden program at quick size, each testdata program
// and each restructureBugPrograms program, optimized on one node, with and
// without NoInline. The simple-versus-optimized comparisons elsewhere cannot
// see an inliner fault, as both builds inline. A restructureBugPrograms
// program must also print its C output.
func TestInlineDifferential(t *testing.T) {
	type source struct{ name, text, want string }
	var sources []source
	for _, bm := range olden.All() {
		sources = append(sources, source{bm.Name, bm.Source(olden.QuickParams(bm)), ""})
	}
	files, err := filepath.Glob("../../testdata/*.ec")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, source{filepath.Base(f), string(text), ""})
	}
	for _, p := range restructureBugPrograms {
		sources = append(sources, source{p.name, p.src, p.want})
	}
	for _, src := range sources {
		var outs [2]string
		var rets [2]int64
		var errs [2]error
		for i, noInline := range []bool{false, true} {
			p := NewPipeline(Options{Optimize: true, NoInline: noInline})
			u, err := p.Compile(src.name+".ec", src.text)
			if err == nil {
				var res *earthsim.Result
				if res, err = p.Run(u, RunConfig{Nodes: 1}); err == nil {
					outs[i], rets[i] = res.Output, res.MainRet
				}
			}
			errs[i] = err
		}
		switch {
		case errs[0] != nil || errs[1] != nil:
			t.Errorf("%s: inlined: %v; NoInline: %v", src.name, errs[0], errs[1])
		case outs[0] != outs[1] || rets[0] != rets[1]:
			t.Errorf("%s: inlined output %q, return %d; NoInline output %q, return %d",
				src.name, outs[0], rets[0], outs[1], rets[1])
		case src.want != "" && outs[0] != src.want:
			t.Errorf("%s: output %q, want %q", src.name, outs[0], src.want)
		}
	}
}
