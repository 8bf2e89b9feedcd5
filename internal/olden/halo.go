package olden

// Halo returns the scalability workload behind the BenchmarkSimNodes sweep:
// a one-dimensional Jacobi relaxation over a ring of cells, one cell placed
// on every simulated node. Each iteration every cell reads its two ring
// neighbors' values (strictly nearest-neighbor remote reads — the classic
// halo exchange) and double-buffers its update, so total traffic grows
// linearly with the node count while each message crosses exactly one link.
// That makes it the stress case for the event loop's conservative
// lookahead: every shard talks every window, but only to its neighbors.
//
// Halo is deliberately not in All(): it measures the simulator, not the
// paper's communication optimizations, so it stays out of the Olden
// tables, the fault sweep, and the service workload mix.
func Halo() *Benchmark {
	return &Benchmark{
		Name:        "halo",
		Description: "Ring halo exchange: 1-D Jacobi relaxation, one cell per node",
		PaperSize:   "n/a (simulator scalability workload)",
		DefaultParams: Params{
			Iters: 10,
		},
		Source: haloSource,
	}
}

func haloSource(p Params) string {
	return expand(haloTemplate, p)
}

const haloTemplate = `
struct Cell {
	double val;
	double upd;
	struct Cell *left;
	struct Cell *right;
	struct Cell *next;
};

int ITERS() { return @ITERS@; }

// make_cell runs at the cell's owner node (a placed call), so each ring
// slot lives in its node's local memory.
Cell *make_cell(int i, Cell *head) {
	Cell *c;
	c = alloc(Cell);
	c->val = 1.0 + dbl(i % 7) / 3.0;
	c->upd = 0.0;
	c->left = NULL;
	c->right = NULL;
	c->next = head;
	return c;
}

// relax reads both neighbors' current values — the halo exchange — and
// stores the smoothed update into the second buffer.
double relax(Cell local *c) {
	Cell *l;
	Cell *r;
	double a;
	double b;
	l = c->left;
	r = c->right;
	a = l->val;
	b = r->val;
	c->upd = 0.25 * a + 0.5 * c->val + 0.25 * b;
	return c->upd;
}

// commit flips the double buffer after every cell has read its neighbors.
double commit(Cell local *c) {
	c->val = c->upd;
	return c->val;
}

int main() {
	Cell *head;
	Cell *c;
	Cell *prev;
	int i;
	int n;
	int node;
	int it;
	double d;
	double sum;
	n = num_nodes();
	head = NULL;
	for (i = n - 1; i >= 0; i--) {
		node = i;
		head = make_cell(i, head)@ON(node);
	}
	prev = NULL;
	c = head;
	while (c != NULL) {
		if (prev != NULL) {
			prev->right = c;
			c->left = prev;
		}
		prev = c;
		c = c->next;
	}
	head->left = prev;
	prev->right = head;
	for (it = 0; it < ITERS(); it++) {
		forall (c = head; c != NULL; c = c->next) {
			d = relax(c)@OWNER_OF(c);
		}
		forall (c = head; c != NULL; c = c->next) {
			d = commit(c)@OWNER_OF(c);
		}
	}
	sum = 0.0;
	c = head;
	while (c != NULL) {
		sum = sum + c->val;
		c = c->next;
	}
	print_double(sum);
	return 0;
}
`
