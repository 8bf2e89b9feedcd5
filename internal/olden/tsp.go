package olden

// Tsp implements the Olden traveling-salesperson benchmark: cities live in
// a spatial binary tree distributed across nodes; subtrees are solved in
// parallel and the sub-tours merged with a closest-point heuristic. The
// merge scans tours through pointers, calling distance() with loop-invariant
// pointers — the paper credits tsp's gains to redundant-communication
// elimination and pipelining of exactly these reads.
func Tsp() *Benchmark {
	return &Benchmark{
		Name:        "tsp",
		Description: "Find sub-optimal tour for traveling salesperson problem",
		PaperSize:   "32K cities",
		DefaultParams: Params{
			Size: 512, // cities
		},
		PaperImprovement16: 11.93,
		Source:             tspSource,
	}
}

func tspSource(p Params) string {
	return expand(tspTemplate, p)
}

const tspTemplate = lcg + levels + `
struct City {
	double x;
	double y;
	struct City *left;
	struct City *right;
	struct City *next;
	struct City *prev;
};

int NCITIES() { return @SIZE@; }

// build constructs a balanced binary tree of n cities with deterministic
// pseudo-random coordinates. The top lvl levels place the children of a
// city owned by node k on nodes 2k and 2k+1 (mod P); deeper levels stay on
// their subtree's node. main passes lvl = levels(2), so the tree reaches
// every node, and a city below that depth has the owner of its level-lvl
// ancestor.
City *build(int n, int seed, int node, int lvl) {
	City *c;
	int s;
	int nl;
	int nr;
	int child1;
	int child2;
	int sl;
	if (n == 0) return NULL;
	c = alloc(City);
	s = nextrand(seed);
	c->x = dbl(s % 100000) / 100.0;
	s = nextrand(s);
	c->y = dbl(s % 100000) / 100.0;
	c->next = NULL;
	c->prev = NULL;
	nl = (n - 1) / 2;
	nr = n - 1 - nl;
	if (lvl > 0) {
		// Subtrees are built on their owner nodes via placed calls, both
		// at once: neither build reads the other's result.
		child1 = (2 * node) % num_nodes();
		child2 = (2 * node + 1) % num_nodes();
		sl = s + 17;
		s = nextrand(s + 5);
		{^
			c->left = build(nl, sl, child1, lvl - 1)@ON(child1);
			c->right = build(nr, s, child2, lvl - 1)@ON(child2);
		^}
		return c;
	}
	c->left = build(nl, s + 17, node, 0);
	s = nextrand(s + 5);
	c->right = build(nr, s, node, 0);
	return c;
}

double distance(City *a, City *b) {
	double dx;
	double dy;
	dx = a->x - b->x;
	dy = a->y - b->y;
	return sqrt(dx * dx + dy * dy);
}

// splice joins two circular tours with the closest-point heuristic: scan
// tour a for the city nearest to b's anchor (the anchor pointer stays
// invariant across the distance calls — the access pattern the paper's
// redundancy elimination exploits), then scan tour b for the city nearest
// to that one, and join the cycles there.
City *splice(City *a, City *b) {
	City *pa;
	City *pb;
	City *besta;
	City *bestb;
	City *na;
	City *nb;
	double best;
	double d;
	if (a == NULL) return b;
	if (b == NULL) return a;
	best = 1.0e18;
	besta = a;
	pa = a;
	do {
		d = distance(pa, b);
		if (d < best) {
			best = d;
			besta = pa;
		}
		pa = pa->next;
	} while (pa != a);
	best = 1.0e18;
	bestb = b;
	pb = b;
	do {
		d = distance(besta, pb);
		if (d < best) {
			best = d;
			bestb = pb;
		}
		pb = pb->next;
	} while (pb != b);
	na = besta->next;
	nb = bestb->next;
	besta->next = nb;
	nb->prev = besta;
	bestb->next = na;
	na->prev = bestb;
	return besta;
}

// tsp solves a subtree: solve children, then merge their tours with this
// city's singleton cycle.
City *tsp(City *t) {
	City *l;
	City *r;
	City *tour;
	if (t == NULL) return NULL;
	l = tsp(t->left);
	r = tsp(t->right);
	t->next = t;
	t->prev = t;
	tour = splice(t, l);
	tour = splice(tour, r);
	return tour;
}

// tsp_par parallelizes the top lvl levels of the divide and conquer,
// solving each subtree on its owner node. With the same lvl as build, each
// leaf subtree is solved by the node that owns all of its cities.
City *tsp_par(City *t, int lvl) {
	City *l;
	City *r;
	City *tl;
	City *tr;
	City *tour;
	if (t == NULL) return NULL;
	if (lvl == 0) return tsp(t);
	l = t->left;
	r = t->right;
	tl = NULL;
	tr = NULL;
	if (l != NULL && r != NULL) {
		{^
			tl = tsp_par(l, lvl - 1)@OWNER_OF(l);
			tr = tsp_par(r, lvl - 1)@OWNER_OF(r);
		^}
	} else {
		if (l != NULL) tl = tsp_par(l, lvl - 1)@OWNER_OF(l);
		if (r != NULL) tr = tsp_par(r, lvl - 1)@OWNER_OF(r);
	}
	t->next = t;
	t->prev = t;
	tour = splice(t, tl);
	tour = splice(tour, tr);
	return tour;
}

double tour_length(City *tour) {
	double len;
	City *p;
	len = 0.0;
	p = tour;
	do {
		len = len + distance(p, p->next);
		p = p->next;
	} while (p != tour);
	return len;
}

int main() {
	City *root;
	City *tour;
	double len;
	root = build(NCITIES(), 42, 0, levels(2));
	tour = tsp_par(root, levels(2));
	len = tour_length(tour);
	print_double(len);
	return trunc(len);
}
`
