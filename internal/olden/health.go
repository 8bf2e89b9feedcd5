package olden

// Health implements the Olden health benchmark: a discrete-time simulation
// of the Colombian health-care system over a 4-way tree of villages. Each
// time step, patients are generated at leaf villages, wait for personnel,
// are assessed, and are either treated locally or referred up the tree.
// List walks read and write patient fields through pointers, and the
// village's hospital counters (v->hosp.free_personnel) are hoisted and
// written back exactly as in the paper's Figure 11(c) extract. The paper
// notes health has relatively few remote accesses, so its improvement is
// the smallest of the suite.
func Health() *Benchmark {
	return &Benchmark{
		Name:        "health",
		Description: "Simulates the Colombian health-care system using a 4-way tree",
		PaperSize:   "4 levels and 600 iterations",
		DefaultParams: Params{
			Size:  4,  // tree levels
			Iters: 12, // time steps
		},
		PaperImprovement16: 14.88,
		Source:             healthSource,
	}
}

func healthSource(p Params) string {
	return expand(healthTemplate, p)
}

const healthTemplate = lcg + `
struct Patient {
	int time;
	int time_left;
	struct Patient *forward;
};

struct Hosp {
	int personnel;
	int free_personnel;
	struct Patient *waiting;
	struct Patient *assess;
	struct Patient *inside;
};

struct Village {
	struct Village *child0;
	struct Village *child1;
	struct Village *child2;
	struct Village *child3;
	struct Village *parent;
	int level;
	int seed;
	int treated;
	int treated_time;
	struct Hosp hosp;
};

int LEVELS() { return @SIZE@; }
int ITERS() { return @ITERS@; }

Village *build(int level, int node, int seed, Village *parent) {
	Village *v;
	int i;
	int s;
	int s0;
	int s1;
	int s2;
	int s3;
	int n0;
	int n1;
	int n2;
	int n3;
	v = alloc(Village);
	v->parent = parent;
	v->level = level;
	v->seed = nextrand(seed + level * 37 + 11);
	v->treated = 0;
	v->treated_time = 0;
	v->hosp.personnel = 1 + level * 2;
	v->hosp.free_personnel = 1 + level * 2;
	v->hosp.waiting = NULL;
	v->hosp.assess = NULL;
	v->hosp.inside = NULL;
	v->child0 = NULL;
	v->child1 = NULL;
	v->child2 = NULL;
	v->child3 = NULL;
	if (level == 0) return v;
	s = v->seed;
	if (level >= LEVELS() - 2) {
		// The two spread levels build their four subtrees on their owner
		// nodes, all at once: no build reads another's result.
		s0 = nextrand(s);
		s1 = nextrand(s0);
		s2 = nextrand(s1);
		s3 = nextrand(s2);
		if (level == LEVELS() - 1) {
			n0 = 0 % num_nodes();
			n1 = 1 % num_nodes();
			n2 = 2 % num_nodes();
			n3 = 3 % num_nodes();
		} else {
			n0 = (4 * node + 1) % num_nodes();
			n1 = (4 * node + 2) % num_nodes();
			n2 = (4 * node + 3) % num_nodes();
			n3 = (4 * node + 4) % num_nodes();
		}
		{^
			v->child0 = build(level - 1, n0, s0, v)@ON(n0);
			v->child1 = build(level - 1, n1, s1, v)@ON(n1);
			v->child2 = build(level - 1, n2, s2, v)@ON(n2);
			v->child3 = build(level - 1, n3, s3, v)@ON(n3);
		^}
		return v;
	}
	for (i = 0; i < 4; i++) {
		s = nextrand(s);
		if (i == 0) v->child0 = build(level - 1, node, s, v);
		if (i == 1) v->child1 = build(level - 1, node, s, v);
		if (i == 2) v->child2 = build(level - 1, node, s, v);
		if (i == 3) v->child3 = build(level - 1, node, s, v);
	}
	return v;
}

// check_patients_inside: treated patients leave, freeing personnel (the
// Figure 11(c) extract: the free_personnel counter is hoisted into a local
// and written back once).
void check_patients_inside(Village *village) {
	Patient *list;
	Patient *p;
	Patient *keep;
	Patient *f;
	int t;
	int free1;
	int tr;
	int trt;
	keep = NULL;
	free1 = village->hosp.free_personnel;
	tr = village->treated;
	trt = village->treated_time;
	list = village->hosp.inside;
	while (list != NULL) {
		p = list;
		f = p->forward;
		t = p->time_left - 1;
		p->time_left = t;
		p->time = p->time + 1;
		if (t == 0) {
			free1 = free1 + 1;
			tr = tr + 1;
			trt = trt + p->time;
		} else {
			p->forward = keep;
			keep = p;
		}
		list = f;
	}
	village->hosp.inside = keep;
	village->hosp.free_personnel = free1;
	village->treated = tr;
	village->treated_time = trt;
}

// check_patients_assess: assessment finishes after its delay; the patient
// is then treated locally or referred up. Returns the list referred up.
Patient *check_patients_assess(Village *village) {
	Patient *list;
	Patient *p;
	Patient *f;
	Patient *keep;
	Patient *up;
	int t;
	int s;
	int free1;
	keep = NULL;
	up = NULL;
	s = village->seed;
	free1 = village->hosp.free_personnel;
	list = village->hosp.assess;
	while (list != NULL) {
		p = list;
		f = p->forward;
		t = p->time_left - 1;
		p->time_left = t;
		p->time = p->time + 1;
		if (t == 0) {
			s = nextrand(s);
			if (s % 10 < 3 && village->parent != NULL) {
				// Referred to the parent village: releases personnel here.
				free1 = free1 + 1;
				p->forward = up;
				up = p;
			} else {
				p->time_left = 10;
				p->forward = village->hosp.inside;
				village->hosp.inside = p;
			}
		} else {
			p->forward = keep;
			keep = p;
		}
		list = f;
	}
	village->hosp.assess = keep;
	village->hosp.free_personnel = free1;
	village->seed = s;
	return up;
}

// check_patients_waiting: admit waiting patients while personnel are free.
void check_patients_waiting(Village *village) {
	Patient *list;
	Patient *p;
	Patient *f;
	Patient *keep;
	int free1;
	keep = NULL;
	free1 = village->hosp.free_personnel;
	list = village->hosp.waiting;
	while (list != NULL) {
		p = list;
		f = p->forward;
		if (free1 > 0) {
			free1 = free1 - 1;
			p->time_left = 3;
			p->time = p->time + 1;
			p->forward = village->hosp.assess;
			village->hosp.assess = p;
		} else {
			p->time = p->time + 1;
			p->forward = keep;
			keep = p;
		}
		list = f;
	}
	village->hosp.waiting = keep;
	village->hosp.free_personnel = free1;
}

// generate_patient: leaf villages produce new patients stochastically.
void generate_patient(Village *village) {
	int s;
	Patient *p;
	s = nextrand(village->seed);
	village->seed = s;
	if (s % 10 < 3) {
		p = alloc(Patient);
		p->time = 0;
		p->time_left = 0;
		p->forward = village->hosp.waiting;
		village->hosp.waiting = p;
	}
}

// addList prepends list src onto dst and returns the new head.
Patient *addList(Patient *dst, Patient *src) {
	Patient *p;
	Patient *f;
	p = src;
	while (p != NULL) {
		f = p->forward;
		p->forward = dst;
		dst = p;
		p = f;
	}
	return dst;
}

// sim advances one village (and its subtree) one time step, returning the
// patients referred up to the caller.
Patient *sim(Village *village) {
	Patient *u0;
	Patient *u1;
	Patient *u2;
	Patient *u3;
	Patient *up;
	Village *c0;
	Village *c1;
	Village *c2;
	Village *c3;
	if (village->level > 0) {
		c0 = village->child0;
		c1 = village->child1;
		c2 = village->child2;
		c3 = village->child3;
		if (village->level >= LEVELS() - 2) {
			{^
				u0 = sim(c0)@OWNER_OF(c0);
				u1 = sim(c1)@OWNER_OF(c1);
				u2 = sim(c2)@OWNER_OF(c2);
				u3 = sim(c3)@OWNER_OF(c3);
			^}
		} else {
			u0 = sim(c0);
			u1 = sim(c1);
			u2 = sim(c2);
			u3 = sim(c3);
		}
		village->hosp.waiting = addList(village->hosp.waiting, u0);
		village->hosp.waiting = addList(village->hosp.waiting, u1);
		village->hosp.waiting = addList(village->hosp.waiting, u2);
		village->hosp.waiting = addList(village->hosp.waiting, u3);
	}
	check_patients_inside(village);
	up = check_patients_assess(village);
	check_patients_waiting(village);
	if (village->level == 0) generate_patient(village);
	return up;
}

// totals sums treated counts and times over the tree.
int totals(Village *v, int wantTime) {
	int t;
	if (v == NULL) return 0;
	if (wantTime == 1) t = v->treated_time;
	else t = v->treated;
	t = t + totals(v->child0, wantTime);
	t = t + totals(v->child1, wantTime);
	t = t + totals(v->child2, wantTime);
	t = t + totals(v->child3, wantTime);
	return t;
}

int main() {
	Village *root;
	Patient *up;
	int it;
	int treated;
	int ttime;
	root = build(LEVELS() - 1, 0, 91, NULL);
	for (it = 0; it < ITERS(); it++) {
		up = sim(root);
	}
	treated = totals(root, 0);
	ttime = totals(root, 1);
	print_int(treated);
	print_int(ttime);
	return treated * 1000 + ttime % 1000;
}
`
