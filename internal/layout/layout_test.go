package layout_test

import (
	"slices"
	"testing"

	"repro/internal/core"
)

// nestedSrc reaches a clustered struct in every way lowering can: through
// pointers, as a field of another clustered struct, as a frame variable and
// its fields, as array elements, by whole-struct copies between frame and
// remote storage and by the address of a nested field.
const nestedSrc = `
struct Inner {
	int a;
	int b;
	int c;
	int d;
};

struct Outer {
	int x;
	int y;
	struct Inner in;
	int z;
	int w;
};

int sumin(Inner *q) {
	return q->d * 1000 + q->c * 100 + q->b * 10 + q->a;
}

int hot(Outer *p) {
	return p->w + p->z + p->y + p->w + p->z;
}

int inner_hot(Inner *q) {
	return q->d + q->c + q->b + q->d;
}

int main() {
	Outer *p;
	Outer *r;
	Outer o;
	Inner arr[3];
	Inner *ip;
	int i;
	int s;
	p = alloc_on(Outer, num_nodes() - 1);
	r = alloc_on(Outer, 0);
	p->x = 1; p->y = 2; p->z = 3; p->w = 4;
	p->in.a = 5; p->in.b = 6; p->in.c = 7; p->in.d = 8;
	o = *p;
	o.in.c = o.in.c + 10;
	*r = o;
	r->in = p->in;
	for (i = 0; i < 3; i++) {
		arr[i].a = i; arr[i].b = i + 1; arr[i].c = i + 2; arr[i].d = i + 3;
	}
	arr[1].c = o.in.c; arr[1].d = o.in.d;
	ip = &o.in;
	s = sumin(ip) + sumin(&o.in) ;
	print_int(s);
	print_int(sumin(&p->in));
	print_int(sumin(&r->in));
	print_int(hot(p) + inner_hot(&p->in));
	print_int(o.x * 10 + o.y + o.z * 100 + o.w * 1000);
	print_int(arr[1].d * 1000 + arr[1].c * 100 + arr[2].b);
	print_int(r->x + r->y * 10 + r->z * 100 + r->w * 1000);
	return s;
}
`

// TestClusterNested: both structs are re-laid out, and every way of
// reaching their words still reaches the same ones, on one node and two.
func TestClusterNested(t *testing.T) {
	declared := core.NewPipeline(core.Options{Optimize: true, DeclaredLayout: true})
	clustered := core.NewPipeline(core.Options{Optimize: true})
	du, err := declared.Compile("nested.ec", nestedSrc)
	if err != nil {
		t.Fatal(err)
	}
	cu, err := clustered.Compile("nested.ec", nestedSrc)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string][]string{
		// Remote accesses: z 6, w 6, y 4, in 4, x 2 (ties in declared order).
		"Outer": {"z", "w", "y", "in", "x"},
		// d 7, b 5, c 5, a 3.
		"Inner": {"d", "b", "c", "a"},
	} {
		if got := cu.Simple.Structs[name].Fields; !slices.Equal(got, want) {
			t.Errorf("%s clustered as %v, want %v", name, got, want)
		}
		if got := du.Simple.Structs[name].Fields; slices.Equal(got, want) {
			t.Errorf("%s declared as %v, the clustered order", name, got)
		}
	}
	const want = "19530\n8765\n8765\n45\n4312\n9703\n4321\n"
	for _, nodes := range []int{1, 2} {
		for _, b := range []struct {
			name string
			p    *core.Pipeline
			u    *core.Unit
		}{{"declared", declared, du}, {"clustered", clustered, cu}} {
			res, err := b.p.Run(b.u, core.RunConfig{Nodes: nodes})
			if err != nil {
				t.Fatalf("%s on %d nodes: %v", b.name, nodes, err)
			}
			if res.Output != want {
				t.Errorf("%s on %d nodes printed %q, want %q", b.name, nodes, res.Output, want)
			}
		}
	}
}
