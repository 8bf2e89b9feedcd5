package olden

// Voronoi stands in for the Olden voronoi benchmark. The original computes
// a Voronoi diagram by divide and conquer, merging sub-diagrams by walking
// their convex hulls in an alternating, irregular fashion (Guibas-Stolfi).
// This reproduction implements the same computational skeleton as a
// divide-and-conquer convex hull over a distributed binary tree of points:
// sub-hulls are computed in parallel on their owner nodes and merged by
// orientation-test walks over linked hull cycles — the same irregular
// pointer-chasing reads of point coordinates (with heavy cross-call
// redundancy) that the paper credits for voronoi's improvement. See
// DESIGN.md for the substitution rationale.
func Voronoi() *Benchmark {
	return &Benchmark{
		Name:        "voronoi",
		Description: "Computes the Voronoi diagram (here: D&C hull merge) of a set of points",
		PaperSize:   "32K points",
		DefaultParams: Params{
			Size: 512, // points
		},
		PaperImprovement16: 15.38,
		Source:             voronoiSource,
	}
}

func voronoiSource(p Params) string {
	return expand(voronoiTemplate, p)
}

const voronoiTemplate = lcg + levels + `
struct Point {
	double x;
	double y;
	struct Point *left;
	struct Point *right;
	struct Point *next;
	struct Point *prev;
	struct Point *link;
};

int NPOINTS() { return @SIZE@; }

// build constructs a balanced binary tree of n points. The top lvl levels
// place the children of a point owned by node k on nodes 2k and 2k+1
// (mod P); deeper levels stay on their subtree's node. main passes
// lvl = levels(2), so a point's owner is the owner of its level-lvl
// ancestor, and hull_par at the same depth computes each leaf sub-hull on
// the node that owns all of its points.
Point *build(int n, int seed, int node, int lvl) {
	Point *p;
	int s;
	int nl;
	int child1;
	int child2;
	int sl;
	if (n == 0) return NULL;
	p = alloc(Point);
	s = nextrand(seed);
	p->x = dbl(s % 1000000) / 1000.0;
	s = nextrand(s);
	p->y = dbl(s % 1000000) / 1000.0;
	p->next = NULL;
	p->prev = NULL;
	p->link = NULL;
	nl = (n - 1) / 2;
	if (lvl > 0) {
		// Subtrees are built on their owner nodes via placed calls, both
		// at once: neither build reads the other's result.
		child1 = (2 * node) % num_nodes();
		child2 = (2 * node + 1) % num_nodes();
		sl = s + 29;
		s = nextrand(s + 13);
		{^
			p->left = build(nl, sl, child1, lvl - 1)@ON(child1);
			p->right = build(n - 1 - nl, s, child2, lvl - 1)@ON(child2);
		^}
		return p;
	}
	p->left = build(nl, s + 29, node, 0);
	s = nextrand(s + 13);
	p->right = build(n - 1 - nl, s, node, 0);
	return p;
}

// cross computes the z component of (a-o) x (b-o): positive when o->a->b
// turns counter-clockwise. Reads six coordinates through three pointers;
// the outer pointers are invariant over candidate scans, so the optimizer
// removes most of the traffic.
double cross(Point *o, Point *a, Point *b) {
	double ox;
	double oy;
	ox = o->x;
	oy = o->y;
	return (a->x - ox) * (b->y - oy) - (a->y - oy) * (b->x - ox);
}

double dist2(Point *a, Point *b) {
	double dx;
	double dy;
	dx = a->x - b->x;
	dy = a->y - b->y;
	return dx * dx + dy * dy;
}

// collect walks a hull cycle, pushing its vertices onto a link-list.
Point *collect(Point *hull, Point *list) {
	Point *p;
	if (hull == NULL) return list;
	p = hull;
	do {
		p->link = list;
		list = p;
		p = p->next;
	} while (p != hull);
	return list;
}

// wrap runs a gift-wrapping (Jarvis) march over the candidate list, linking
// the resulting convex hull into a counter-clockwise cycle.
Point *wrap(Point *cands, int maxsteps) {
	Point *start;
	Point *p;
	Point *cur;
	Point *best;
	Point *first;
	double c;
	int steps;
	if (cands == NULL) return NULL;
	if (cands->link == NULL) {
		cands->next = cands;
		cands->prev = cands;
		return cands;
	}
	// start = lowest point (minimum y, then minimum x).
	start = cands;
	p = cands->link;
	while (p != NULL) {
		if (p->y < start->y || (p->y == start->y && p->x < start->x))
			start = p;
		p = p->link;
	}
	cur = start;
	first = start;
	steps = 0;
	do {
		best = NULL;
		p = cands;
		while (p != NULL) {
			if (p != cur) {
				if (best == NULL) {
					best = p;
				} else {
					c = cross(cur, best, p);
					if (c < 0.0) {
						best = p;
					} else {
						if (c == 0.0 && dist2(cur, p) > dist2(cur, best))
							best = p;
					}
				}
			}
			p = p->link;
		}
		cur->next = best;
		best->prev = cur;
		cur = best;
		steps = steps + 1;
	} while (cur != first && steps < maxsteps);
	if (cur != first) {
		// Guard against degenerate inputs: close the cycle.
		cur->next = first;
		first->prev = cur;
	}
	return first;
}

// merge joins two sub-hulls and one extra point into the hull of the union.
Point *merge(Point *a, Point *b, Point *t) {
	Point *list;
	int n;
	Point *p;
	list = collect(a, NULL);
	list = collect(b, list);
	t->link = list;
	list = t;
	n = 0;
	p = list;
	while (p != NULL) {
		n = n + 1;
		p = p->link;
	}
	return wrap(list, n + 1);
}

Point *hull(Point *t) {
	Point *l;
	Point *r;
	if (t == NULL) return NULL;
	l = hull(t->left);
	r = hull(t->right);
	return merge(l, r, t);
}

Point *hull_par(Point *t, int lvl) {
	Point *l;
	Point *r;
	Point *hl;
	Point *hr;
	if (t == NULL) return NULL;
	if (lvl == 0) return hull(t);
	l = t->left;
	r = t->right;
	hl = NULL;
	hr = NULL;
	if (l != NULL && r != NULL) {
		{^
			hl = hull_par(l, lvl - 1)@OWNER_OF(l);
			hr = hull_par(r, lvl - 1)@OWNER_OF(r);
		^}
	} else {
		if (l != NULL) hl = hull_par(l, lvl - 1)@OWNER_OF(l);
		if (r != NULL) hr = hull_par(r, lvl - 1)@OWNER_OF(r);
	}
	return merge(hl, hr, t);
}

int main() {
	Point *root;
	Point *h;
	Point *p;
	double len;
	int count;
	root = build(NPOINTS(), 1234, 0, levels(2));
	h = hull_par(root, levels(2));
	len = 0.0;
	count = 0;
	p = h;
	do {
		len = len + sqrt(dist2(p, p->next));
		count = count + 1;
		p = p->next;
	} while (p != h);
	print_int(count);
	print_double(len);
	return count * 1000 + trunc(len) % 1000;
}
`
