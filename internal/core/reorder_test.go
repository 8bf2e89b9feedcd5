package core

import (
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/olden"
	"repro/internal/simple"
)

// reorderSrc scatters the three hot fields across a wide struct, so a
// blocked fetch of the needed span would be too wasteful without
// reordering. consume reads all three through one pointer, the shape that
// makes field clustering re-lay a struct out.
const reorderSrc = `
struct Rec {
	int hot1;
	int cold1; int cold2; int cold3; int cold4; int cold5;
	int hot2;
	int cold6; int cold7; int cold8; int cold9; int cold10;
	int hot3;
};

int consume(Rec *r) {
	return r->hot1 + r->hot2 + r->hot3;
}

int main() {
	Rec *r;
	int i;
	int s;
	r = alloc_on(Rec, num_nodes() - 1);
	r->hot1 = 1;
	r->hot2 = 2;
	r->hot3 = 3;
	s = 0;
	for (i = 0; i < 40; i++) {
		s = s + consume(r);
	}
	print_int(s);
	return s;
}
`

// TestReorderFieldsClustersHotFields: an optimized build moves the three
// hot fields, which consume reads through one pointer, to offsets 0..2,
// turning a 13-word span into a 3-word block; the declared-layout build
// keeps the span and cannot block it.
func TestReorderFieldsClustersHotFields(t *testing.T) {
	plain, err := compile("r.ec", reorderSrc, Options{Optimize: true, DeclaredLayout: true})
	if err != nil {
		t.Fatal(err)
	}
	reordered, err := compile("r.ec", reorderSrc, Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}

	lay := reordered.Simple.Structs["Rec"]
	for _, hot := range []string{"hot1", "hot2", "hot3"} {
		if lay.Offsets[hot] > 2 {
			t.Errorf("%s should be clustered at the front, offset %d", hot, lay.Offsets[hot])
		}
	}
	if got := plain.Simple.Structs["Rec"].Offsets["hot3"]; got != 12 {
		t.Errorf("declared layout: hot3 at offset %d, want 12", got)
	}

	// Without reordering the span is too wasteful to block; with it the
	// three fields block.
	plainOut := simple.FuncString(plain.Simple.FuncByName("consume"), simple.PrintOptions{})
	reordOut := simple.FuncString(reordered.Simple.FuncByName("consume"), simple.PrintOptions{})
	if strings.Contains(plainOut, "blkmov") {
		t.Errorf("scattered layout should not block:\n%s", plainOut)
	}
	if !strings.Contains(reordOut, "blkmov(r, &bcomm1, 3)") {
		t.Errorf("reordered layout should block a 3-word span:\n%s", reordOut)
	}

	// Semantics preserved, and the reordered version is no slower.
	pres, err := runUnit(plain, RunConfig{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	rres, err := runUnit(reordered, RunConfig{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if pres.Output != rres.Output {
		t.Fatalf("reordering changed results: %q vs %q", pres.Output, rres.Output)
	}
	// The mechanism claim: reordering lets blocking collapse the scalar
	// operations into block moves (whether that wins time depends on how
	// often the block amortizes — here the hoisted reads ran only once, so
	// timing is near parity; the count reduction is the observable).
	plainOps := pres.Counts.RemoteReads + pres.Counts.RemoteWrites
	reordOps := rres.Counts.RemoteReads + rres.Counts.RemoteWrites
	if reordOps >= plainOps || rres.Counts.RemoteBlk == 0 {
		t.Errorf("reordering should trade scalar ops (%d -> %d) for block moves (%d)",
			plainOps, reordOps, rres.Counts.RemoteBlk)
	}
	t.Logf("plain %d ns (%s) -> reordered %d ns (%s)",
		pres.Time, pres.Counts, rres.Time, rres.Counts)
}

// TestReorderFieldsIdempotentWhenAligned: a struct whose hot fields already
// lead keeps its layout and its result.
func TestReorderFieldsIdempotentWhenAligned(t *testing.T) {
	src := `
struct P { int a; int b; };
int main() {
	P *p;
	p = alloc(P);
	p->a = 1;
	p->b = 2;
	return p->a + p->b;
}
`
	u, err := compile("r.ec", src, Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if lay := u.Simple.Structs["P"]; lay.Offsets["a"] != 0 || lay.Offsets["b"] != 1 {
		t.Errorf("P laid out as %v, want declared", lay.Offsets)
	}
	res, err := runUnit(u, RunConfig{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.MainRet != 3 {
		t.Errorf("got %d want 3", res.MainRet)
	}
}

// TestClusterKeepsUnblockedStructs: a struct that no function reads or
// writes in the shape of a blocked transfer keeps its declared offsets in
// an optimized build, though some of its fields are accessed remotely more
// often than others: halo's Cell and count.ec's Node.
func TestClusterKeepsUnblockedStructs(t *testing.T) {
	count, err := os.ReadFile("../../testdata/count.ec")
	if err != nil {
		t.Fatal(err)
	}
	halo := olden.Halo()
	for _, tc := range []struct{ name, src, structName string }{
		{"halo.ec", halo.Source(halo.DefaultParams), "Cell"},
		{"count.ec", string(count), "Node"},
	} {
		declared, err := compile(tc.name, tc.src, Options{Optimize: true, DeclaredLayout: true})
		if err != nil {
			t.Fatal(err)
		}
		clustered, err := compile(tc.name, tc.src, Options{Optimize: true})
		if err != nil {
			t.Fatal(err)
		}
		want, got := declared.Simple.Structs[tc.structName], clustered.Simple.Structs[tc.structName]
		if !reflect.DeepEqual(got.Offsets, want.Offsets) || !slices.Equal(got.Fields, want.Fields) {
			t.Errorf("%s: %s laid out as %v, want the declared %v", tc.name, tc.structName, got.Offsets, want.Offsets)
		}
	}
}
