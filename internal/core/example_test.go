package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/simple"
)

// distanceSrc is the paper's motivating distance() example (Figure 3) in a
// program that calls it on a point held by the other node of two.
const distanceSrc = `
struct Point {
	double x;
	double y;
};

// The paper's Figure 3: with no locality information, every indirect
// reference through p is potentially remote.
double distance(Point *p) {
	double dist_p;
	dist_p = sqrt((p->x * p->x) + (p->y * p->y));
	return dist_p;
}

int main() {
	Point *p;
	double total;
	int i;
	// The point lives on the other node: the reads really are remote.
	p = alloc_on(Point, 1);
	p->x = 3.0;
	p->y = 4.0;
	total = 0.0;
	for (i = 0; i < 100; i++) {
		total = total + distance(p);
	}
	print_double(total);
	return trunc(total);
}
`

// Example_figure3 compiles Figure 3's distance() with and without the
// communication optimization, prints the SIMPLE code before (Figure 3(b)) and
// after (Figure 3(c)), and runs both versions on a 2-node machine.
func Example_figure3() {
	// Compile without the communication optimization ("simple")...
	simplePipe := core.NewPipeline(core.Options{NoInline: true})
	simpleUnit, err := simplePipe.Compile("distance.ec", distanceSrc)
	if err != nil {
		panic(err)
	}
	// ...and with it.
	optPipe := core.NewPipeline(core.Options{Optimize: true, NoInline: true})
	optUnit, err := optPipe.Compile("distance.ec", distanceSrc)
	if err != nil {
		panic(err)
	}

	fmt.Println("=== SIMPLE form (before optimization, cf. Figure 3(b)) ===")
	fmt.Println(simple.FuncString(simpleUnit.Simple.FuncByName("distance"), simple.PrintOptions{}))
	fmt.Println("=== After communication selection (cf. Figure 3(c)) ===")
	fmt.Println(simple.FuncString(optUnit.Simple.FuncByName("distance"), simple.PrintOptions{}))
	fmt.Println(optUnit.Report)
	fmt.Println()

	// Run both on a 2-node machine and compare.
	sres, err := simplePipe.Run(simpleUnit, core.RunConfig{Nodes: 2})
	if err != nil {
		panic(err)
	}
	ores, err := optPipe.Run(optUnit, core.RunConfig{Nodes: 2})
	if err != nil {
		panic(err)
	}
	fmt.Printf("program output (both versions): %q\n", sres.Output)
	fmt.Printf("simple:    %8.3f ms   %s\n", float64(sres.Time)/1e6, sres.Counts)
	fmt.Printf("optimized: %8.3f ms   %s\n", float64(ores.Time)/1e6, ores.Counts)
	fmt.Printf("improvement: %.2f%%\n", 100*(1-float64(ores.Time)/float64(sres.Time)))

	// Output:
	// === SIMPLE form (before optimization, cf. Figure 3(b)) ===
	// double distance(struct Point * p)
	// {
	//     temp1 = p->x;
	//     temp2 = p->x;
	//     temp3 = temp1 * temp2;
	//     temp4 = p->y;
	//     temp5 = p->y;
	//     temp6 = temp4 * temp5;
	//     temp7 = temp3 + temp6;
	//     dist_p = sqrt(temp7);
	//     return(dist_p);
	// }
	//
	// === After communication selection (cf. Figure 3(c)) ===
	// double distance(struct Point * p)
	// {
	//     comm1 = p->x; /* get_sync */
	//     comm2 = p->y; /* get_sync */
	//     temp1 = comm1;
	//     temp2 = comm1;
	//     temp3 = temp1 * temp2;
	//     temp4 = comm2;
	//     temp5 = comm2;
	//     temp6 = temp4 * temp5;
	//     temp7 = temp3 + temp6;
	//     dist_p = sqrt(temp7);
	//     return(dist_p);
	// }
	//
	// commsel: reads 2 pipelined + 0 blocked (4 loads redirected, 2 redundant eliminated); writes 2 pipelined + 0 blocked (2 stores redirected)
	//
	// program output (both versions): "500.000000\n"
	// simple:       1.684 ms   reads=400 writes=2 blkmov=0 blkwords=0 (local rt: 0/0/0) shared=0 rpc=0 spawn=0 alloc=1 instr=1914
	// optimized:    0.878 ms   reads=200 writes=2 blkmov=0 blkwords=0 (local rt: 0/0/0) shared=0 rpc=0 spawn=0 alloc=1 instr=1914
	// improvement: 47.87%
}

// listSearchSrc is the paper's worked list-search example of Figures 7 and
// 8: a list traversal comparing each element against a target point.
const listSearchSrc = `
struct Point {
	double x;
	double y;
	struct Point *next;
};

double f(double ax, double ay, double bx, double by) {
	double dx;
	double dy;
	dx = ax - bx;
	dy = ay - by;
	return sqrt(dx * dx + dy * dy);
}

// The paper's Figure 7 fragment: find the last point within epsilon of *t,
// then compute coordinate differences.
double example(Point *head, Point *t, double epsilon) {
	Point *p;
	Point *close;
	double ax; double ay; double bx; double by;
	double cx; double tx; double diffx;
	double cy; double ty; double diffy;
	double dist;
	close = NULL;
	p = head;
	while (p != NULL) {
		ax = p->x;
		ay = p->y;
		bx = t->x;
		by = t->y;
		dist = f(ax, ay, bx, by);
		if (dist < epsilon) close = p;
		p = p->next;
	}
	cx = close->x;
	tx = t->x;
	diffx = cx - tx;
	cy = close->y;
	ty = t->y;
	diffy = cy - ty;
	return diffx + diffy;
}

int main() {
	Point *head;
	Point *t;
	Point *p;
	int i;
	int n;
	double d;
	head = NULL;
	n = num_nodes();
	for (i = 0; i < 64; i++) {
		p = alloc_on(Point, i % n);
		p->x = dbl(i % 17);
		p->y = dbl(i % 13);
		p->next = head;
		head = p;
	}
	t = alloc(Point);
	t->x = 5.0;
	t->y = 5.0;
	d = example(head, t, 4.0);
	print_double(d);
	return trunc(d);
}
`

// Example_figure7 prints the possible-placement analysis' RemoteReads sets
// per statement (Figure 7), the transformed code with pipelined and blocked
// communication (Figure 8(b)), and runs both versions on a 4-node machine.
func Example_figure7() {
	optPipe := core.NewPipeline(core.Options{Optimize: true, NoInline: true})
	u, err := optPipe.Compile("listsearch.ec", listSearchSrc)
	if err != nil {
		panic(err)
	}

	fmt.Println("=== RemoteReads sets (possible-placement analysis, cf. Figure 7) ===")
	fn := u.Simple.FuncByName("example")
	simple.WalkStmts(fn.Body, func(s simple.Stmt) {
		b, ok := s.(*simple.Basic)
		if !ok {
			return
		}
		if rs := u.Placement.Reads[s]; rs.Len() > 0 {
			fmt.Printf("  S%-3d %-30s %s\n", b.Label, simple.BasicText(b), rs)
		}
	})

	fmt.Println("\n=== Transformed code (cf. Figure 8(b)) ===")
	fmt.Println(simple.FuncString(fn, simple.PrintOptions{Labels: true}))
	fmt.Println(u.Report)

	simplePipe := core.NewPipeline(core.Options{NoInline: true})
	simpleUnit, err := simplePipe.Compile("listsearch.ec", listSearchSrc)
	if err != nil {
		panic(err)
	}
	sres, err := simplePipe.Run(simpleUnit, core.RunConfig{Nodes: 4})
	if err != nil {
		panic(err)
	}
	ores, err := optPipe.Run(u, core.RunConfig{Nodes: 4})
	if err != nil {
		panic(err)
	}
	if sres.Output != ores.Output {
		panic(fmt.Sprintf("outputs differ: %q vs %q", sres.Output, ores.Output))
	}
	fmt.Printf("output: %q\n", sres.Output)
	fmt.Printf("simple:    %8.3f ms   %s\n", float64(sres.Time)/1e6, sres.Counts)
	fmt.Printf("optimized: %8.3f ms   %s\n", float64(ores.Time)/1e6, ores.Counts)
	fmt.Printf("improvement: %.2f%%\n", 100*(1-float64(ores.Time)/float64(sres.Time)))

	// Output:
	// === RemoteReads sets (possible-placement analysis, cf. Figure 7) ===
	//   S0   close = NULL;                  {(t->x, 11, {S4,S10}), (t->y, 11, {S5,S13})}
	//   S1   p = head;                      {(t->x, 11, {S4,S10}), (t->y, 11, {S5,S13})}
	//   S2   ax = bcomm1.x;                 {(p->x, 1, {S2}), (p->y, 1, {S3}), (p->next, 1, {S8}), (t->x, 1, {S4}), (t->y, 1, {S5})}
	//   S3   ay = bcomm1.y;                 {(p->y, 1, {S3}), (p->next, 1, {S8}), (t->x, 1, {S4}), (t->y, 1, {S5})}
	//   S4   bx = comm1;                    {(p->next, 1, {S8}), (t->x, 1, {S4}), (t->y, 1, {S5})}
	//   S5   by = comm2;                    {(p->next, 1, {S8}), (t->y, 1, {S5})}
	//   S6   dist = f(ax, ay, bx, by);      {(p->next, 1, {S8})}
	//   S8   p = bcomm1.next;               {(p->next, 1, {S8})}
	//   S9   cx = comm3;                    {(close->x, 1, {S9}), (close->y, 1, {S12}), (t->x, 1, {S10}), (t->y, 1, {S13})}
	//   S10  tx = comm1;                    {(close->y, 1, {S12}), (t->x, 1, {S10}), (t->y, 1, {S13})}
	//   S11  diffx = cx - tx;               {(close->y, 1, {S12}), (t->y, 1, {S13})}
	//   S13  ty = comm2;                    {(t->y, 1, {S13})}
	//
	// === Transformed code (cf. Figure 8(b)) ===
	// double example(struct Point * head, struct Point * t, double epsilon)
	// {
	//     S17: comm1 = t->x; /* get_sync */
	//     S18: comm2 = t->y; /* get_sync */
	//     S0: close = NULL;
	//     S1: p = head;
	//     while (p != NULL) {
	//         S19: blkmov(p, &bcomm1, 3); /* read */
	//         S2: ax = bcomm1.x;
	//         S3: ay = bcomm1.y;
	//         S4: bx = comm1;
	//         S5: by = comm2;
	//         S6: dist = f(ax, ay, bx, by);
	//         if (dist < epsilon) {
	//             S7: close = p;
	//             S22: fwd1 = bcomm1.y;
	//         }
	//         S8: p = bcomm1.next;
	//     }
	//     S20: comm3 = close->x; /* get_sync */
	//     S9: cx = comm3;
	//     S10: tx = comm1;
	//     S11: diffx = cx - tx;
	//     S13: ty = comm2;
	//     S14: diffy = fwd1 - ty;
	//     S16: temp13 = diffx + diffy;
	//     S15: return(temp13);
	// }
	//
	// commsel: reads 3 pipelined + 1 blocked (9 loads redirected, 3 redundant eliminated); writes 3 pipelined + 0 blocked (3 stores redirected)
	// output: "-4.000000\n"
	// simple:       1.295 ms   reads=146 writes=144 blkmov=0 blkwords=0 (local rt: 178/48/0) shared=0 rpc=0 spawn=0 alloc=65 instr=2285
	// optimized:    1.032 ms   reads=1 writes=144 blkmov=48 blkwords=192 (local rt: 2/48/16) shared=0 rpc=0 spawn=0 alloc=65 instr=2461
	// improvement: 20.34%
}
