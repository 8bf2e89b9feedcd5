package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/simple"
)

// progGen generates random but well-formed EARTH-C programs that exercise
// the communication optimizer: linked structures spread across nodes, field
// reads and writes through possibly-remote pointers, conditionals, list
// walks, struct copies, placed calls, and shared counters. Programs always
// terminate (loops are canonical list walks) and never divide by zero
// (divisors are (x % k) + k forms).
type progGen struct {
	r     *rand.Rand
	buf   strings.Builder
	depth int
	// copies adds a pointer copy q: "q = p", reads and writes through q
	// under a q != NULL test, and "q = NULL" (generateCopyProgram).
	copies bool
	// carries ends the list at the anchor t and adds walks that read and
	// write through q = p->next before the latch (generateCarryProgram).
	carries bool
}

func (g *progGen) pick(options ...string) string {
	return options[g.r.Intn(len(options))]
}

// intExpr produces an int-valued expression over the in-scope names.
func (g *progGen) intExpr(depth int, names []string) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(3) {
		case 0:
			return fmt.Sprintf("%d", g.r.Intn(200)-100)
		default:
			return names[g.r.Intn(len(names))]
		}
	}
	a := g.intExpr(depth-1, names)
	b := g.intExpr(depth-1, names)
	switch g.r.Intn(5) {
	case 0:
		return fmt.Sprintf("(%s + %s)", a, b)
	case 1:
		return fmt.Sprintf("(%s - %s)", a, b)
	case 2:
		return fmt.Sprintf("(%s * %s)", a, b)
	case 3:
		// Safe modulo: |b| % k + 1 is never zero.
		return fmt.Sprintf("(%s %% ((%s %% 7) * (%s %% 7) + 1))", a, b, b)
	default:
		return fmt.Sprintf("(%s ^ %s)", a, b)
	}
}

func (g *progGen) cond(names []string) string {
	op := g.pick("<", ">", "<=", ">=", "==", "!=")
	return fmt.Sprintf("%s %s %s", g.intExpr(1, names), op, g.intExpr(1, names))
}

func (g *progGen) line(format string, args ...any) {
	g.buf.WriteString(strings.Repeat("\t", g.depth))
	fmt.Fprintf(&g.buf, format, args...)
	g.buf.WriteString("\n")
}

// stmts emits n random statements; ptr names the current cursor variable
// (a possibly-remote list node), anchor a loop-invariant node.
func (g *progGen) stmts(n int, ptr, anchor string, ints []string, nested int) {
	fields := []string{"a", "b", "c", "d", "e"}
	field := func() string { return fields[g.r.Intn(len(fields))] }
	for i := 0; i < n; i++ {
		names := append([]string{}, ints...)
		names = append(names, ptr+"->"+field(), anchor+"->"+field())
		k := g.r.Intn(9)
		if g.copies {
			k = g.r.Intn(13)
		}
		switch k {
		case 0, 1:
			g.line("%s = %s;", ints[g.r.Intn(len(ints))], g.intExpr(2, names))
		case 2:
			g.line("%s->%s = %s;", ptr, field(), g.intExpr(2, names))
		case 3:
			g.line("%s->%s = %s;", anchor, field(), g.intExpr(2, names))
		case 4:
			if nested > 0 {
				g.line("if (%s) {", g.cond(names))
				g.depth++
				g.stmts(1+g.r.Intn(2), ptr, anchor, ints, nested-1)
				g.depth--
				if g.r.Intn(2) == 0 {
					g.line("} else {")
					g.depth++
					g.stmts(1+g.r.Intn(2), ptr, anchor, ints, nested-1)
					g.depth--
				}
				g.line("}")
			} else {
				g.line("%s = %s;", ints[g.r.Intn(len(ints))], g.intExpr(1, names))
			}
		case 5:
			if nested > 0 {
				// Every case implicitly breaks; the default is optional.
				g.line("switch (%s %% 3) {", g.intExpr(1, names))
				for c, label := range []string{"case 0:", "case 1: case -1:", "default:"} {
					if c > 0 && g.r.Intn(3) == 0 {
						continue
					}
					g.line("%s {", label)
					g.depth++
					g.stmts(1+g.r.Intn(3), ptr, anchor, ints, nested-1)
					g.depth--
					g.line("}")
				}
				g.line("}")
			} else {
				g.line("%s->%s = %s;", ptr, field(), g.intExpr(1, names))
			}
		case 6:
			// Struct copy through a local buffer.
			g.line("tmp = *%s;", g.pick(ptr, anchor))
			g.line("%s = tmp.a + tmp.b;", ints[g.r.Intn(len(ints))])
		case 7:
			g.line("%s->c = %s->a + %s->b;", ptr, ptr, ptr)
		case 8:
			g.line("%s = helper(%s, %s);", ints[g.r.Intn(len(ints))],
				g.intExpr(1, names), g.intExpr(1, names))
		case 9:
			g.line("q = %s;", g.pick(ptr, anchor))
		case 10:
			g.line("if (q != NULL) { %s = q->%s + %s; }", ints[g.r.Intn(len(ints))], field(), g.intExpr(1, names))
		case 11:
			g.line("if (%s) { q = NULL; }", g.cond(names))
		default:
			g.line("if (q != NULL) { q->%s = %s; }", field(), g.intExpr(1, names))
		}
	}
}

// generateProgram builds a complete program from a seed.
func generateProgram(seed int64) string {
	return (&progGen{r: rand.New(rand.NewSource(seed))}).program()
}

// generateCopyProgram is generateProgram with the pointer copy q in work.
func generateCopyProgram(seed int64) string {
	return (&progGen{r: rand.New(rand.NewSource(seed)), copies: true}).program()
}

// generateCarryProgram is generateProgram with walks over the list, which
// ends at the anchor t, that read through q = p->next: "do { q = p->next;
// ...; p = q; } while (p != t)" or its "p = p->next" and while forms.
func generateCarryProgram(seed int64) string {
	return (&progGen{r: rand.New(rand.NewSource(seed)), carries: true}).program()
}

// carryWalk emits one walk from head to the anchor t whose body reads and
// writes through q = p->next and through p before its latch.
func (g *progGen) carryWalk(ints []string) {
	g.line(`p = head;`)
	do := g.r.Intn(2) == 0
	if do {
		g.line(`do {`)
	} else {
		g.line(`while (p != t) {`)
	}
	g.depth++
	g.line(`q = p->next;`)
	g.stmts(1+g.r.Intn(3), "q", "p", ints, 1)
	g.stmts(g.r.Intn(2), "p", "t", ints, 1)
	g.line(g.pick(`p = q;`, `p = p->next;`))
	g.depth--
	if do {
		g.line(`} while (p != t);`)
	} else {
		g.line(`}`)
	}
}

func (g *progGen) program() string {
	g.line(`struct N {`)
	g.line(`	int a;`)
	g.line(`	int b;`)
	g.line(`	int c;`)
	g.line(`	int d;`)
	g.line(`	int e;`)
	g.line(`	struct N *next;`)
	g.line(`};`)
	g.line(``)
	g.line(`int helper(int x, int y) {`)
	g.line(`	if (x > y) return x - y;`)
	g.line(`	return y - x + 1;`)
	g.line(`}`)
	g.line(``)
	g.line(`int work(N *head, N *t) {`)
	g.depth++
	g.line(`N *p;`)
	g.line(`N tmp;`)
	g.line(`int i0; int i1; int i2;`)
	if g.copies || g.carries {
		g.line(`N *q;`)
		g.line(`q = NULL;`)
	}
	g.line(`i0 = 3; i1 = 5; i2 = 7;`)
	ints := []string{"i0", "i1", "i2"}
	// Straight-line prologue against the anchor.
	g.stmts(2+g.r.Intn(3), "t", "t", ints, 1)
	if g.carries {
		for w := 0; w < 1+g.r.Intn(2); w++ {
			g.carryWalk(ints)
		}
	}
	// One or two list walks.
	walks := 1 + g.r.Intn(2)
	for w := 0; w < walks; w++ {
		g.line(`p = head;`)
		g.line(`while (p != NULL) {`)
		g.depth++
		g.stmts(2+g.r.Intn(3), "p", "t", ints, 2)
		g.line(`p = p->next;`)
		g.depth--
		g.line(`}`)
	}
	g.line(`return i0 + i1 * 3 + i2 * 7;`)
	g.depth--
	g.line(`}`)
	g.line(``)
	g.line(`int main() {`)
	g.depth++
	g.line(`N *head;`)
	g.line(`N *p;`)
	g.line(`N *t;`)
	g.line(`int i;`)
	g.line(`int r;`)
	g.line(`int r1;`)
	g.line(`int r2;`)
	g.line(`int sum;`)
	g.line(`shared int acc;`)
	g.line(`head = NULL;`)
	if g.carries {
		g.line(`t = alloc_on(N, num_nodes() - 1);`)
		g.line(`t->a = 11; t->b = 13; t->c = 17; t->d = 19; t->e = 23; t->next = NULL;`)
		g.line(`head = t;`)
	}
	n := 5 + g.r.Intn(8)
	g.line(`for (i = 0; i < %d; i++) {`, n)
	g.depth++
	g.line(`p = alloc_on(N, i %% num_nodes());`)
	g.line(`p->a = i * 3 + 1;`)
	g.line(`p->b = i * i - 4;`)
	g.line(`p->c = 0;`)
	g.line(`p->d = i + 7;`)
	g.line(`p->e = 2 * i - 9;`)
	g.line(`p->next = head;`)
	g.line(`head = p;`)
	g.depth--
	g.line(`}`)
	if !g.carries {
		g.line(`t = alloc_on(N, num_nodes() - 1);`)
		g.line(`t->a = 11; t->b = 13; t->c = 17; t->d = 19; t->e = 23; t->next = NULL;`)
	}
	g.line(`r = work(head, t);`)
	g.line(`sum = r;`)
	// Optionally exercise the parallel constructs: a forall reduction over
	// the list into a shared counter, and a parallel pair of placed calls.
	// The forall body reads locals set before the loop (its spawn copies
	// them), writes a list field the final walk reads, and on some seeds
	// writes the step's field p->next, whose get must then stay after the
	// spawn.
	if g.r.Intn(2) == 0 {
		g.line(`writeto(&acc, 0);`)
		g.line(`i = %d;`, 1+g.r.Intn(20))
		g.line(`forall (p = head; p != NULL; p = p->next) {`)
		g.depth++
		g.line(`addto(&acc, p->a %% 97 + p->b %% 89 + r %% 13 + i);`)
		g.line(`p->%s = p->%s + i;`, g.pick("c", "e"), g.pick("a", "d"))
		if g.r.Intn(3) == 0 {
			g.line(`p->next = p->next;`)
		}
		g.depth--
		g.line(`}`)
		g.line(`sum = sum + valueof(&acc);`)
	}
	if g.r.Intn(2) == 0 {
		g.line(`{^`)
		g.depth++
		g.line(`r1 = helper(t->a, %d)@OWNER_OF(t);`, g.r.Intn(50))
		g.line(`r2 = helper(head->b, %d)@OWNER_OF(head);`, g.r.Intn(50))
		g.depth--
		g.line(`^}`)
		g.line(`sum = sum + r1 * 5 + r2;`)
	}
	g.line(`p = head;`)
	g.line(`while (p != NULL) {`)
	g.depth++
	g.line(`sum = sum + p->a + 2 * p->b + 3 * p->c + 5 * p->d + 7 * p->e;`)
	g.line(`p = p->next;`)
	g.depth--
	g.line(`}`)
	g.line(`sum = sum + t->a + 2 * t->b + 3 * t->c + 5 * t->d + 7 * t->e;`)
	g.line(`print_int(sum);`)
	g.line(`return sum;`)
	g.depth--
	g.line(`}`)
	return g.buf.String()
}

// TestOptimizerSemanticsFuzz is the central property test: for many random
// programs, the communication-optimized build must produce exactly the same
// output as the simple build, on one node and on several, and as the
// sequential baseline. This exercises read hoisting, redundancy
// elimination, blocking, write motion, and shadow unification against
// ground truth.
func TestOptimizerSemanticsFuzz(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 12
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			buildsAgree(t, generateProgram(seed))
		})
	}
}

// FuzzOptimizerSemantics is TestOptimizerSemanticsFuzz as a native fuzz
// target: the fuzzed value seeds progGen, so every input is a well-formed
// program, and every build must print what the sequential baseline prints.
func FuzzOptimizerSemantics(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		buildsAgree(t, generateProgram(seed))
	})
}

// TestForwardingFuzz is TestOptimizerSemanticsFuzz over programs with a
// pointer copy q of the list cursor or the anchor, read and written under
// q != NULL tests and reset to NULL at random, so reads through q are
// forwarded from copies of the cursor's fields wherever commsel proves
// them held, and refused where a write through the cursor, through q or
// through a call may have changed the field, or q may be NULL. The rule
// must fire on some seeds for the test to mean anything.
func TestForwardingFuzz(t *testing.T) {
	seeds, fired := 60, 0
	if testing.Short() {
		seeds = 12
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if buildsAgree(t, generateCopyProgram(seed)) {
				fired++
			}
		})
	}
	if fired == 0 {
		t.Errorf("no read was forwarded on any of %d seeds", seeds)
	}
}

// TestLoopCarriedFuzz is TestOptimizerSemanticsFuzz over programs whose
// list ends at the anchor t, with walks that read and write through
// q = p->next (and through p and t) before the latch p = q or p = p->next,
// so loop-top reads are carried around the back edge wherever placement
// and selection admit it, and refused where a write may reach a carried
// field, q is read on some paths only, or a while loop's entry is not
// deref-safe. The rule must fire on some seeds for the test to mean
// anything.
func TestLoopCarriedFuzz(t *testing.T) {
	seeds, fired := 60, 0
	if testing.Short() {
		seeds = 12
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			src := generateCarryProgram(seed)
			buildsAgree(t, src)
			u, err := compile("fuzz.ec", src, Options{Optimize: true})
			if err != nil {
				t.Fatal(err)
			}
			if u.Report.Totals().CarriedReads > 0 {
				fired++
			}
		})
	}
	if fired == 0 {
		t.Errorf("no read was carried on any of %d seeds", seeds)
	}
	t.Logf("the rule fired on %d of %d seeds", fired, seeds)
}

// buildsAgree runs src as the sequential baseline and the simple and
// optimized builds on 1 and 3 nodes, and fails t unless every run prints the
// same. It reports whether the optimized build forwarded a read.
func buildsAgree(t *testing.T, src string) (forwarded bool) {
	t.Helper()
	var ref string
	first := true
	check := func(label string, optimize bool, nodes int, sequential bool) {
		opts := Options{Optimize: optimize}
		if label == "optimized/declared" {
			opts.DeclaredLayout = true
		}
		u, err := compile("fuzz.ec", src, opts)
		if err != nil {
			t.Fatalf("%s: compile: %v\n--- source:\n%s", label, err, src)
		}
		if optimize {
			simple.WalkBasics(u.Simple.FuncByName("work").Body, func(b *simple.Basic) {
				simple.EachVar(b, func(v *simple.Var, _ bool) {
					forwarded = forwarded || strings.HasPrefix(v.Name, "fwd")
				})
			})
		}
		res, err := runUnit(u, RunConfig{Nodes: nodes, Sequential: sequential})
		if err != nil {
			t.Fatalf("%s: run: %v\n--- source:\n%s", label, err, src)
		}
		if first {
			ref = res.Output
			first = false
			return
		}
		if res.Output != ref {
			t.Errorf("%s: output %q != reference %q\n--- source:\n%s",
				label, res.Output, ref, src)
		}
	}
	check("sequential", false, 1, true)
	check("simple/1", false, 1, false)
	check("simple/3", false, 3, false)
	check("optimized/1", true, 1, false)
	check("optimized/3", true, 3, false)
	check("optimized/declared", true, 3, false)
	return forwarded
}
