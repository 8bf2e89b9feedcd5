package olden

// Perimeter implements the Olden perimeter benchmark: the perimeter of a
// quadtree-encoded raster image (a disk), computed with the classic
// Samet algorithm — for every black leaf, locate the greater-or-equal-size
// adjacent neighbor through parent links and sum the white length along the
// shared edge (sum_adjacent, the paper's Figure 11(b) extract). The
// computation is irregular and communication-intensive: neighbor searches
// routinely cross quadrants that live on different nodes.
func Perimeter() *Benchmark {
	return &Benchmark{
		Name:        "perimeter",
		Description: "Computes the perimeter of a quad-tree encoded raster image",
		PaperSize:   "maximum tree depth 11",
		DefaultParams: Params{
			Size: 6, // tree depth: 64x64 image
		},
		PaperImprovement16: 16.00,
		Source:             perimeterSource,
	}
}

func perimeterSource(p Params) string {
	return expand(perimeterTemplate, p)
}

const perimeterTemplate = levels + `
// Colors and child types are small integers:
//   color: 0 white, 1 black, 2 grey
//   childtype: 0 nw, 1 ne, 2 sw, 3 se
//   direction: 0 north, 1 east, 2 south, 3 west
struct Quad {
	int color;
	int childtype;
	struct Quad *nw;
	struct Quad *ne;
	struct Quad *sw;
	struct Quad *se;
	struct Quad *parent;
};

int DEPTH() { return @SIZE@; }

// Geometry in doubled units: the image spans [0, 2S] with the disk centered
// at (S, S), radius S-1. Cells are 2 units wide.
int axisnear(int c, int lo, int hi) {
	if (c < lo) return lo - c;
	if (c > hi) return c - hi;
	return 0;
}

int axisfar(int c, int lo, int hi) {
	int a;
	int b;
	a = c - lo;
	if (a < 0) a = -a;
	b = c - hi;
	if (b < 0) b = -b;
	if (a > b) return a;
	return b;
}

// classify returns 0 (all white), 1 (all black), or 2 (mixed) for the cell
// square [x, x+s) x [y, y+s).
int classify(int x, int y, int s, int size) {
	int cx;
	int cy;
	int r;
	int nx;
	int ny;
	int fx;
	int fy;
	int nearsq;
	int farsq;
	cx = size;
	cy = size;
	r = size - 1;
	nx = axisnear(cx, 2 * x, 2 * x + 2 * s);
	ny = axisnear(cy, 2 * y, 2 * y + 2 * s);
	fx = axisfar(cx, 2 * x, 2 * x + 2 * s);
	fy = axisfar(cy, 2 * y, 2 * y + 2 * s);
	nearsq = nx * nx + ny * ny;
	farsq = fx * fx + fy * fy;
	if (nearsq > r * r) return 0;
	if (farsq <= r * r) return 1;
	return 2;
}

// build constructs the quadtree for this square; the top lvl levels place
// child subtrees on their owner nodes (the paper's distribution spreads the
// top of the tree across the machine).
Quad *build(int x, int y, int s, int size, Quad *parent, int ct, int node, int lvl) {
	Quad *q;
	int cl;
	int h;
	int c1;
	int c2;
	int c3;
	int c4;
	q = alloc(Quad);
	q->childtype = ct;
	q->parent = parent;
	q->nw = NULL;
	q->ne = NULL;
	q->sw = NULL;
	q->se = NULL;
	cl = classify(x, y, s, size);
	if (s == 1) {
		// Single cell: decide by its center.
		if (cl == 2) {
			cl = 0;
			if ((2*x+1-size)*(2*x+1-size) + (2*y+1-size)*(2*y+1-size) <= (size-1)*(size-1))
				cl = 1;
		}
		q->color = cl;
		return q;
	}
	if (cl != 2) {
		q->color = cl;
		return q;
	}
	h = s / 2;
	q->color = 2;
	if (lvl > 0) {
		c1 = (4 * node + 0) % num_nodes();
		c2 = (4 * node + 1) % num_nodes();
		c3 = (4 * node + 2) % num_nodes();
		c4 = (4 * node + 3) % num_nodes();
		// The four placed builds are independent: their owners build
		// them at the same time.
		{^
			q->nw = build(x, y, h, size, q, 0, c1, lvl - 1)@ON(c1);
			q->ne = build(x + h, y, h, size, q, 1, c2, lvl - 1)@ON(c2);
			q->sw = build(x, y + h, h, size, q, 2, c3, lvl - 1)@ON(c3);
			q->se = build(x + h, y + h, h, size, q, 3, c4, lvl - 1)@ON(c4);
		^}
		return q;
	}
	q->nw = build(x, y, h, size, q, 0, node, 0);
	q->ne = build(x + h, y, h, size, q, 1, node, 0);
	q->sw = build(x, y + h, h, size, q, 2, node, 0);
	q->se = build(x + h, y + h, h, size, q, 3, node, 0);
	return q;
}

// child selects a quadrant field by child type.
Quad *child(Quad *q, int ct) {
	Quad *r;
	switch (ct) {
	case 0: r = q->nw;
	case 1: r = q->ne;
	case 2: r = q->sw;
	case 3: r = q->se;
	default: r = NULL;
	}
	return r;
}

// adj reports whether a node of the given child type touches the given side
// of its parent (so its neighbor in that direction lies outside the parent).
int adj(int d, int ct) {
	int r;
	r = 0;
	switch (d) {
	case 0: if (ct == 0) r = 1; if (ct == 1) r = 1;
	case 1: if (ct == 1) r = 1; if (ct == 3) r = 1;
	case 2: if (ct == 2) r = 1; if (ct == 3) r = 1;
	case 3: if (ct == 0) r = 1; if (ct == 2) r = 1;
	}
	return r;
}

// reflect mirrors a child type across the axis of the given direction.
int reflect(int d, int ct) {
	if (d == 0 || d == 2) {
		// flip north/south
		if (ct == 0) return 2;
		if (ct == 2) return 0;
		if (ct == 1) return 3;
		return 1;
	}
	// flip east/west
	if (ct == 0) return 1;
	if (ct == 1) return 0;
	if (ct == 2) return 3;
	return 2;
}

// gtequal_adj_neighbor finds the adjacent neighbor of greater or equal size
// in direction d, or NULL at the image border (Samet).
Quad *gtequal_adj_neighbor(Quad *q, int d) {
	Quad *p;
	Quad *neighbor;
	int ct;
	p = q->parent;
	ct = q->childtype;
	if (p != NULL && adj(d, ct) == 1)
		neighbor = gtequal_adj_neighbor(p, d);
	else
		neighbor = p;
	if (neighbor != NULL && neighbor->color == 2)
		return child(neighbor, reflect(d, ct));
	return neighbor;
}

// sum_adjacent sums the length of white cells along one edge of a subtree
// (the paper's Figure 11(b) extract: a blocking candidate reading the color
// and two child pointers of the same node).
int sum_adjacent(Quad *q, int q1, int q2, int s) {
	int c;
	Quad *p1;
	Quad *p2;
	c = q->color;
	if (c == 2) {
		p1 = child(q, q1);
		p2 = child(q, q2);
		return sum_adjacent(p1, q1, q2, s / 2) + sum_adjacent(p2, q1, q2, s / 2);
	}
	if (c == 0) return s;
	return 0;
}

// edge computes one side's contribution for a black leaf: the white length
// of the facing edge of the neighbor (or the full side at the image edge).
int edge(Quad *q, int d, int q1, int q2, int s) {
	Quad *neighbor;
	int nc;
	neighbor = gtequal_adj_neighbor(q, d);
	if (neighbor == NULL) return s;
	nc = neighbor->color;
	if (nc == 0) return s;
	if (nc == 2) return sum_adjacent(neighbor, q1, q2, s);
	return 0;
}

int perimeter(Quad *q, int s) {
	int total;
	int c;
	c = q->color;
	if (c == 2) {
		total = perimeter(q->nw, s / 2);
		total = total + perimeter(q->ne, s / 2);
		total = total + perimeter(q->sw, s / 2);
		total = total + perimeter(q->se, s / 2);
		return total;
	}
	if (c == 1) {
		// north edge faces the neighbor's south children (sw, se), etc.
		total = edge(q, 0, 2, 3, s);
		total = total + edge(q, 1, 0, 2, s);
		total = total + edge(q, 2, 0, 1, s);
		total = total + edge(q, 3, 1, 3, s);
		return total;
	}
	return 0;
}

// perimeter_par parallelizes the top levels of the recursion, migrating to
// each quadrant's owner node.
int perimeter_par(Quad *q, int s, int lvl) {
	int c;
	int t1;
	int t2;
	int t3;
	int t4;
	Quad *w;
	Quad *e;
	Quad *sq;
	Quad *n;
	c = q->color;
	if (c != 2 || lvl == 0) return perimeter(q, s);
	n = q->nw;
	e = q->ne;
	w = q->sw;
	sq = q->se;
	{^
		t1 = perimeter_par(n, s / 2, lvl - 1)@OWNER_OF(n);
		t2 = perimeter_par(e, s / 2, lvl - 1)@OWNER_OF(e);
		t3 = perimeter_par(w, s / 2, lvl - 1)@OWNER_OF(w);
		t4 = perimeter_par(sq, s / 2, lvl - 1)@OWNER_OF(sq);
	^}
	return t1 + t2 + t3 + t4;
}

int main() {
	Quad *root;
	int s;
	int total;
	int h;
	int lvl;
	int par;
	s = 1;
	int i;
	for (i = 0; i < DEPTH(); i++) s = s * 2;
	h = s / 2;
	// Owner of element: the top quadrant k lives on node k mod P, and a
	// quad owned by node n placed below it gives its child k to node
	// 4n+k mod P for lvl = levels(4) - 1 more levels. Every quad deeper
	// than that has its parent's owner, so the subtrees stay node-local.
	lvl = levels(4) - 1;
	if (lvl < 0) lvl = 0;
	par = levels(4);
	if (par < 3) par = 3;
	root = alloc(Quad);
	root->color = 2;
	root->childtype = 0;
	root->parent = NULL;
	{^
		root->nw = build(0, 0, h, s, root, 0, 0 % num_nodes(), lvl)@ON(0 % num_nodes());
		root->ne = build(h, 0, h, s, root, 1, 1 % num_nodes(), lvl)@ON(1 % num_nodes());
		root->sw = build(0, h, h, s, root, 2, 2 % num_nodes(), lvl)@ON(2 % num_nodes());
		root->se = build(h, h, h, s, root, 3, 3 % num_nodes(), lvl)@ON(3 % num_nodes());
	^}
	total = perimeter_par(root, s, par);
	print_int(total);
	return total;
}
`
