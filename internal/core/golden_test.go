package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/earthc"
	"repro/internal/olden"
	"repro/internal/placement"
	"repro/internal/sema"
	"repro/internal/simple"
)

// compiledCodeGolden pins, for every (program, option set) cell, the sha256
// of what the compiler emits: the post-selection SIMPLE text with statement
// labels, the commsel report and the canonical threaded-code disassembly
// (functions sorted by name). A compiler change that must not change the
// code — a faster analysis, a leaner data structure — holds every cell; a
// change that moves a placement or selection decision moves some.
var compiledCodeGolden = map[string]string{
	"power/default/O":                    "7254f8cc575672ef38ccfc4e06da5bee165cc6c8b8ef731295f294dafcaf7575",
	"power/default/O,NoInline":           "30c64d521660dd181b0f14125dfa210aa729b952501c662e466f23ee7245f6d1",
	"power/default/O,DeclaredLayout":     "089803aa5285d2f4d61f2906464f68ed785d7e32dbb33ffeea3da91e98230fa6",
	"power/quick/O":                      "0d66300a7aada3f9a2a7f2fbc09165d12847f5a2318d98f7fbc6e05a3cd8947f",
	"power/quick/O,NoInline":             "342ce56ae276b4dff883b8a3520a3f6d51f95b38d57fe816fa8ede63cd9d24c3",
	"power/quick/O,DeclaredLayout":       "fd48a202b5d838981b944e2da7d233c53180177eb48442632763eff92ef2507c",
	"tsp/default/O":                      "1e620ed7a6a79fcffe5a8b9e8e2e605a699c6a5af1c9582feecfc0b96f5bc613",
	"tsp/default/O,NoInline":             "197f52b709488ea418386d5580891675093e87054a0bb9880b81e3e45d09f0ae",
	"tsp/default/O,DeclaredLayout":       "4ff1ff545369da7514bd95fad466f768ef03e619ddaae0b2fb5208bc5f0ee446",
	"tsp/quick/O":                        "3412bbdc038aa398634db7c43cca3f57b457d113a66cb59cfcb22916527f9e6b",
	"tsp/quick/O,NoInline":               "d3da14577fcebaff81a46efe5b6fb0a51c2e4769ef761b150594c384c895ce1e",
	"tsp/quick/O,DeclaredLayout":         "a1aa311bf8bc8cf5feb392b32164d22180107942eedd5a84ddfd4bf2a4402fc0",
	"health/default/O":                   "c2ee13babc89e6f5058cb673b892e9dae6cf8f63b33ed5e630a71a4377bd8d0b",
	"health/default/O,NoInline":          "bf0b807b39bb16f830acf4b77e12d1f0592ad862709ed6336035d0e3713f6fcb",
	"health/default/O,DeclaredLayout":    "8a2a0ef3f761eeb1a2740fdd0fbc805b6fbf43cfff898df4313f3c5f5aa1ec82",
	"health/quick/O":                     "e2277712ed1732f5549a03ac3c2ee16d839a2384d9c57b2d15663ff3dc0f1473",
	"health/quick/O,NoInline":            "76caa65c584b58c2fbbd1c1d61d7cb62feaa30c766fb259688db916d80dbda2f",
	"health/quick/O,DeclaredLayout":      "c17e381567fb7c57895c8d6c224776c4ae827bdc55fe111950685fd66244fbb9",
	"perimeter/default/O":                "544540959bb0cb21dc7eea374f6a193e7ceb25dffffc09cbdbe7ed726e657266",
	"perimeter/default/O,NoInline":       "a4dbede3855dde005d1c56866e9ec893cbc1724602696894cd499a1cb8d13112",
	"perimeter/default/O,DeclaredLayout": "d3ab3033cb567b13c0fc1b626cf5c122043e811d3d47e1709addf2c33910ca89",
	"perimeter/quick/O":                  "aa3841bde432e2bccc936835d4d5039379b350a4598868bfe67fef6b87e437f7",
	"perimeter/quick/O,NoInline":         "359d910475330eaeb6b090e1dd03ea13c456fcae2559489ba0df597174c305a2",
	"perimeter/quick/O,DeclaredLayout":   "5f0f1dc504b80666e1d1db2f7c076b90a5cfc27a94c1d3766ff39ee4da09cdaa",
	"voronoi/default/O":                  "df76d256f176dc52248bd495e9554ddeebb4d18f13d199c2e57042e206649f00",
	"voronoi/default/O,NoInline":         "9b2b241f2cc15630e96bdbdcdbbe998e3e4ec7395e7b8e639a3f6190fc532d9b",
	"voronoi/default/O,DeclaredLayout":   "6f75eaf78afd90e825a20ee5f404b00acb96b7b1db27e906ee0edc56e8a5ca5a",
	"voronoi/quick/O":                    "f3c7eea9bbfce491da9d08291c13a32631959b3c213e30bea4b67d26bfcd04a0",
	"voronoi/quick/O,NoInline":           "ea7497026b2fcc0e1856434f9d8de0e5cbfbf027f243b6db45296542bdd34b8a",
	"voronoi/quick/O,DeclaredLayout":     "156c3dc259b062cadab957e82522b02736381119e4b44d6ae8fba01f83d71f10",
	"halo/default/O":                     "2f839f5451b5b6a6c5c8dc8e4ce49cb978e21b9fc996fea349af8c0534c26bb2",
	"halo/default/O,NoInline":            "2f839f5451b5b6a6c5c8dc8e4ce49cb978e21b9fc996fea349af8c0534c26bb2",
	"halo/default/O,DeclaredLayout":      "2f839f5451b5b6a6c5c8dc8e4ce49cb978e21b9fc996fea349af8c0534c26bb2",
	"count.ec/O":                         "b44004f5b0469d2a277a3138c0c103c44a92be536ce513ba5829c076d73faff0",
	"count.ec/O,NoInline":                "07c34c118a51838dca7a1a96afc735ce612d77e6b3417e5bb826347273aca109",
	"count.ec/O,DeclaredLayout":          "b44004f5b0469d2a277a3138c0c103c44a92be536ce513ba5829c076d73faff0",
	"distance.ec/O":                      "aba6692023724e029c80392b73d4e1ba5b3e38387253ae49a6b361afc47b94c3",
	"distance.ec/O,NoInline":             "51d1d78c4c71859dcbbe5855184cdee7f2ae6927fbcdc2e229532beaf812b30b",
	"distance.ec/O,DeclaredLayout":       "aba6692023724e029c80392b73d4e1ba5b3e38387253ae49a6b361afc47b94c3",
	"listsearch.ec/O":                    "cdfe08f2303c5e3f700b70dbebe40c3f06e45de922a4f701d3747828997fcc9d",
	"listsearch.ec/O,NoInline":           "a7f5856d057c832ce71181c2290469d4ec5a3bcf82303d48ebdf046bb67ee785",
	"listsearch.ec/O,DeclaredLayout":     "cdfe08f2303c5e3f700b70dbebe40c3f06e45de922a4f701d3747828997fcc9d",
	"scale_point.ec/O":                   "d43e68dfabdae10fe76e9ba99b8923cb22e981088904d7877d4705a010143a84",
	"scale_point.ec/O,NoInline":          "c651c55fb6a3fabc27842dd4cbf1d56ed68d5f4d8a22729041fda2ffad49073b",
	"scale_point.ec/O,DeclaredLayout":    "d43e68dfabdae10fe76e9ba99b8923cb22e981088904d7877d4705a010143a84",

	// Profile-guided builds (Pipeline.ProfileCycle on 4 nodes), where the
	// measured factors scale tuple frequencies non-uniformly.
	"power/quick/O,PGO":     "0d66300a7aada3f9a2a7f2fbc09165d12847f5a2318d98f7fbc6e05a3cd8947f",
	"tsp/quick/O,PGO":       "0ec647d51159cc07bcf6922575a724eb46c73cc0ba336fb685b4100a3a89ba71",
	"health/quick/O,PGO":    "e2277712ed1732f5549a03ac3c2ee16d839a2384d9c57b2d15663ff3dc0f1473",
	"perimeter/quick/O,PGO": "aa3841bde432e2bccc936835d4d5039379b350a4598868bfe67fef6b87e437f7",
	"voronoi/quick/O,PGO":   "b56cc6fc9eb50054a938f2768255de1d4a106cb2013c234097ccea9911ebcfdf",
}

// placementSetsGolden pins, for every compiledCodeGolden cell, the sha256 of
// the possible-placement sets the compile selected from (see
// placementSetsHash). A change that must emit the same code from the same
// analysis holds these too, down to the last bit of every frequency.
var placementSetsGolden = map[string]string{
	"power/default/O":                    "8a8a126c63415fe2475245f2c7b32464317879433a2032207153a441625ce7c9",
	"power/default/O,NoInline":           "248ee2cebcd033b5aadc3a57c0031f3fd6a6bfb7e093245063969d462365a369",
	"power/default/O,DeclaredLayout":     "ba549aa41a5b0f29feaf59a21aca44b662f47bccd0f0324d652fc247b6cd810a",
	"power/quick/O":                      "8a8a126c63415fe2475245f2c7b32464317879433a2032207153a441625ce7c9",
	"power/quick/O,NoInline":             "248ee2cebcd033b5aadc3a57c0031f3fd6a6bfb7e093245063969d462365a369",
	"power/quick/O,DeclaredLayout":       "ba549aa41a5b0f29feaf59a21aca44b662f47bccd0f0324d652fc247b6cd810a",
	"tsp/default/O":                      "f3df7d5a7b1c80d9d0e9e96856338500e76809594e227735c3680e9ae1fe7f85",
	"tsp/default/O,NoInline":             "1539b9022a0a9a0b8cc78d757934ff3fb96d77fa9ed75b74d8907b436b7193a7",
	"tsp/default/O,DeclaredLayout":       "6416560bc0f3b8cd5d822499594169c0ebd1f3627168cb41a12a2ad1bec3401d",
	"tsp/quick/O":                        "f3df7d5a7b1c80d9d0e9e96856338500e76809594e227735c3680e9ae1fe7f85",
	"tsp/quick/O,NoInline":               "1539b9022a0a9a0b8cc78d757934ff3fb96d77fa9ed75b74d8907b436b7193a7",
	"tsp/quick/O,DeclaredLayout":         "6416560bc0f3b8cd5d822499594169c0ebd1f3627168cb41a12a2ad1bec3401d",
	"health/default/O":                   "58bb0782af068ffbaa0aa0b681d3d92dd6b78fd7719ecaf26e79076427362c14",
	"health/default/O,NoInline":          "61c4de0ca3d7541d51ea50db1c4df5e44e285b0e1c29ff6db8f6c2bdc571727d",
	"health/default/O,DeclaredLayout":    "76bd4d33739cd22081d2499901c96eca6d0811b5d6eae467ccc80f77fa02cf82",
	"health/quick/O":                     "58bb0782af068ffbaa0aa0b681d3d92dd6b78fd7719ecaf26e79076427362c14",
	"health/quick/O,NoInline":            "61c4de0ca3d7541d51ea50db1c4df5e44e285b0e1c29ff6db8f6c2bdc571727d",
	"health/quick/O,DeclaredLayout":      "76bd4d33739cd22081d2499901c96eca6d0811b5d6eae467ccc80f77fa02cf82",
	"perimeter/default/O":                "c02b3bd909d5d02708b45f17795ed8abdf0bc77bf15747e68bf1391f3db349de",
	"perimeter/default/O,NoInline":       "236d4d467c18727bf7b94afdd91e623532e998482c4bd8c4238a5586880387f2",
	"perimeter/default/O,DeclaredLayout": "3ccdc543f731ca947f299c8e0c3578dac781a1840e8cf52179ba16f83b7cd98e",
	"perimeter/quick/O":                  "c02b3bd909d5d02708b45f17795ed8abdf0bc77bf15747e68bf1391f3db349de",
	"perimeter/quick/O,NoInline":         "236d4d467c18727bf7b94afdd91e623532e998482c4bd8c4238a5586880387f2",
	"perimeter/quick/O,DeclaredLayout":   "3ccdc543f731ca947f299c8e0c3578dac781a1840e8cf52179ba16f83b7cd98e",
	"voronoi/default/O":                  "9dfcb8401f1bab6491a982b2513cc93d08c4787f374e789c5b3036d7ecea065e",
	"voronoi/default/O,NoInline":         "38ea79dc3955678794da867f25a50cfaec74e61a5f5d463e5849ff8b95b227bd",
	"voronoi/default/O,DeclaredLayout":   "cf77c0f71cbb43b72311c5836236e889824b52b91b39953d05816a589ae36066",
	"voronoi/quick/O":                    "9dfcb8401f1bab6491a982b2513cc93d08c4787f374e789c5b3036d7ecea065e",
	"voronoi/quick/O,NoInline":           "38ea79dc3955678794da867f25a50cfaec74e61a5f5d463e5849ff8b95b227bd",
	"voronoi/quick/O,DeclaredLayout":     "cf77c0f71cbb43b72311c5836236e889824b52b91b39953d05816a589ae36066",
	"halo/default/O":                     "900d50258b822b9e189300f33f7d53b87ae8d3ba42cf22e1eacf49af79c03c7b",
	"halo/default/O,NoInline":            "900d50258b822b9e189300f33f7d53b87ae8d3ba42cf22e1eacf49af79c03c7b",
	"halo/default/O,DeclaredLayout":      "900d50258b822b9e189300f33f7d53b87ae8d3ba42cf22e1eacf49af79c03c7b",
	"count.ec/O":                         "bebc223fb4591f9a9782cf6cc90b99c379ffe29b7f8368acc490d3a42c65fde5",
	"count.ec/O,NoInline":                "9956ea3cb42a43f760465e5509ecb6b520f4fbce0cac70de79edc3a04c1840d0",
	"count.ec/O,DeclaredLayout":          "bebc223fb4591f9a9782cf6cc90b99c379ffe29b7f8368acc490d3a42c65fde5",
	"distance.ec/O":                      "6f9738ff2a60a6c777e83a6fae7372bc39a055f65248d32c884a1af809ade91c",
	"distance.ec/O,NoInline":             "53fbc8884b1eb7e6c63e6c90be14d674dfe49f0670b38f3826fce6dab4161749",
	"distance.ec/O,DeclaredLayout":       "6f9738ff2a60a6c777e83a6fae7372bc39a055f65248d32c884a1af809ade91c",
	"listsearch.ec/O":                    "e12fa3a7aca143ad9987ef9d38132299331639b4accf4b2f4147e4cc864cc09c",
	"listsearch.ec/O,NoInline":           "ae72166d5b2f80e4e0bc915ae629e4c0a8982412d9f8fc8ad46979c3ac8ed5ca",
	"listsearch.ec/O,DeclaredLayout":     "e12fa3a7aca143ad9987ef9d38132299331639b4accf4b2f4147e4cc864cc09c",
	"scale_point.ec/O":                   "877b3c329ccfd48fe9811f5c62154951ca7c82be3f29655b2aa1863bea61578f",
	"scale_point.ec/O,NoInline":          "82173d3c5849dda8e7266d01918057674c85baf492d6bc803768e8537836abfd",
	"scale_point.ec/O,DeclaredLayout":    "877b3c329ccfd48fe9811f5c62154951ca7c82be3f29655b2aa1863bea61578f",
	"power/quick/O,PGO":                  "8a8a126c63415fe2475245f2c7b32464317879433a2032207153a441625ce7c9",
	"tsp/quick/O,PGO":                    "d05754e86c21c4a363649050ac4585fd4f9c31422848425c1adf78bd84dfe217",
	"health/quick/O,PGO":                 "35b7ec21c9496b128bbba97e0fcf6f855f12d5db5ad74e69e9eb2342fe095cea",
	"perimeter/quick/O,PGO":              "694db5af2f118b826529f35737547adaf6782284ede64002946c2f15b34590ef",
	"voronoi/quick/O,PGO":                "4ac38076d7897b9817c37278ba801882aaecee36ea47cffe1c0ee416fa81d54b",
}

// compiledCodeHash is the hash compiledCodeGolden pins for one compiled unit.
func compiledCodeHash(t *testing.T, u *Unit) string {
	t.Helper()
	disasm, err := u.Disasm()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, f := range u.Simple.Funcs {
		h.Write([]byte(simple.FuncString(f, simple.PrintOptions{Labels: true})))
	}
	h.Write([]byte("\x00" + u.Report.String() + "\x00" + disasm))
	return hex.EncodeToString(h.Sum(nil))
}

// placementSetsHash hashes every statement's RemoteReads and RemoteWrites
// set in walk order: each tuple's pointer name, offset, full-precision
// frequency, Dlist, CrossedW and CrossedR, tuples sorted by (name, offset).
func placementSetsHash(u *Unit) string {
	h := sha256.New()
	labels := func(ls []int) string {
		parts := make([]string, len(ls))
		for i, l := range ls {
			parts[i] = strconv.Itoa(l)
		}
		return "{" + strings.Join(parts, ",") + "}"
	}
	writeSet := func(kind string, i int, ts []*placement.Tuple) {
		ts = append([]*placement.Tuple(nil), ts...)
		sort.Slice(ts, func(a, b int) bool {
			if ts[a].P.Name != ts[b].P.Name {
				return ts[a].P.Name < ts[b].P.Name
			}
			return ts[a].Off < ts[b].Off
		})
		fmt.Fprintf(h, "%s%d:", kind, i)
		for _, t := range ts {
			fmt.Fprintf(h, " (%s,%d,%s,%s,%s,%s)", t.P.Name, t.Off,
				strconv.FormatFloat(t.Freq, 'g', -1, 64),
				labels(t.D), labels(t.CrossedW), labels(t.CrossedR))
		}
		h.Write([]byte("\n"))
	}
	for _, f := range u.Simple.Funcs {
		fmt.Fprintf(h, "func %s\n", f.Name)
		i := 0
		simple.WalkStmts(f.Body, func(s simple.Stmt) {
			if rs, ok := u.Placement.Reads[s]; ok && rs.Len() > 0 {
				writeSet("R", i, rs.Tuples())
			}
			if ws, ok := u.Placement.Writes[s]; ok && ws.Len() > 0 {
				writeSet("W", i, ws.Tuples())
			}
			i++
		})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCompiledCodeGolden compiles every Olden program at default and quick
// size, halo and each testdata/*.ec program under -O, -O with NoInline and -O
// with DeclaredLayout, plus each Olden program at quick size profile-guided on
// 4 nodes, and checks the emitted code against compiledCodeGolden and the
// placement sets against placementSetsGolden.
func TestCompiledCodeGolden(t *testing.T) {
	type source struct{ name, text string }
	var sources []source
	for _, bm := range olden.All() {
		sources = append(sources,
			source{bm.Name + "/default", bm.Source(bm.DefaultParams)},
			source{bm.Name + "/quick", bm.Source(olden.QuickParams(bm))})
	}
	halo := olden.Halo()
	sources = append(sources, source{"halo/default", halo.Source(halo.DefaultParams)})
	files, err := filepath.Glob("../../testdata/*.ec")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, source{filepath.Base(f), string(text)})
	}
	optionSets := []struct {
		name string
		opt  Options
	}{
		{"O", Options{Optimize: true}},
		{"O,NoInline", Options{Optimize: true, NoInline: true}},
		{"O,DeclaredLayout", Options{Optimize: true, DeclaredLayout: true}},
	}
	var codeDiffs, setDiffs []string
	check := func(cell string, u *Unit) {
		if got := compiledCodeHash(t, u); got != compiledCodeGolden[cell] {
			codeDiffs = append(codeDiffs, fmt.Sprintf("\t%q: %q,", cell, got))
		}
		if got := placementSetsHash(u); got != placementSetsGolden[cell] {
			setDiffs = append(setDiffs, fmt.Sprintf("\t%q: %q,", cell, got))
		}
	}
	for _, src := range sources {
		for _, set := range optionSets {
			cell := src.name + "/" + set.name
			u, err := compile(src.name+".ec", src.text, set.opt)
			if err != nil {
				t.Fatalf("%s: %v", cell, err)
			}
			check(cell, u)
		}
	}
	cells := len(sources) * len(optionSets)
	for _, bm := range olden.All() {
		cell := bm.Name + "/quick/O,PGO"
		u, _, err := compileWithProfile(bm.Name+".ec", bm.Source(olden.QuickParams(bm)),
			Options{Optimize: true}, RunConfig{Nodes: 4})
		if err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
		check(cell, u)
		cells++
	}
	if len(codeDiffs) != 0 {
		t.Errorf("%d of %d cells differ from compiledCodeGolden; the emitted hashes are:\n%s",
			len(codeDiffs), cells, strings.Join(codeDiffs, "\n"))
	}
	if len(setDiffs) != 0 {
		t.Errorf("%d of %d cells differ from placementSetsGolden; the set hashes are:\n%s",
			len(setDiffs), cells, strings.Join(setDiffs, "\n"))
	}
}

// epochPins pairs each compiler epoch with goldenTablesHash as that epoch
// left compiledCodeGolden and placementSetsGolden, oldest first. A change
// that re-pins a cell bumps compilerEpoch and appends a pair, so a cache
// directory filled before it misses; a pair, once appended, never changes.
var epochPins = []struct {
	epoch  int
	tables string
}{
	{1, "59a60746d21e08f3fcfdd18a13a0a71221aa395ba60b5d345da5057883fd985d"},
	{2, "ff2c2d69bb741d98067dfca0b4b2c4eeb4a88bc69060de55d7f2118c86ea2106"},
	{3, "b1b8cc30907e0a4dd4b1111adfa783dd3fd92e2b7d8165067d97049a3d900ed9"},
	{4, "659a0737d9c2be31dec2c14e9f528157217ba93c970318446c529a1de53d0f57"},
	{5, "2dab99555c7c95efb522ecd61bcfb7d6bd863f34e20528c242bb8da53460a77b"},
}

// goldenTablesHash hashes both golden tables, keys in sorted order.
func goldenTablesHash() string {
	h := sha256.New()
	for _, tbl := range []struct {
		name string
		m    map[string]string
	}{{"compiledCodeGolden", compiledCodeGolden}, {"placementSetsGolden", placementSetsGolden}} {
		fmt.Fprintf(h, "%s\n", tbl.name)
		keys := make([]string, 0, len(tbl.m))
		for k := range tbl.m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%s=%s\n", k, tbl.m[k])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCompilerEpoch: the golden tables are the ones the current epoch was
// pinned with. Re-pinning a cell without a new epoch fails here.
func TestCompilerEpoch(t *testing.T) {
	last := epochPins[len(epochPins)-1]
	if got := goldenTablesHash(); last.epoch != compilerEpoch || last.tables != got {
		t.Errorf("compilerEpoch is %d and the golden tables hash to %s; the last pin is epoch %d with %s: "+
			"a change that moves compiled code bumps compilerEpoch and appends {%d, %q} to epochPins",
			compilerEpoch, got, last.epoch, last.tables, compilerEpoch+1, got)
	}
	for i := 1; i < len(epochPins); i++ {
		if epochPins[i].epoch != epochPins[i-1].epoch+1 || epochPins[i].tables == epochPins[i-1].tables {
			t.Errorf("epochPins[%d] = %v does not follow %v with a new epoch and new tables", i, epochPins[i], epochPins[i-1])
		}
	}
}

// semaGolden pins, for each Olden program at quick and at compile_cold's
// tiny size, compiled clustered and with DeclaredLayout, the sha256 of what
// semantic analysis recorded on the checked AST (semaHash). A change to how
// sema stores its results must hold every cell. Literal values are not
// hashed, so a program's sizes and builds share one hash.
var semaGolden = map[string]string{
	"power/quick/O":                    "1b02352461192ffc0d380f0a1834aafd5c71083a503a074430166206b0b296c2",
	"power/quick/O,DeclaredLayout":     "1b02352461192ffc0d380f0a1834aafd5c71083a503a074430166206b0b296c2",
	"power/tiny/O":                     "1b02352461192ffc0d380f0a1834aafd5c71083a503a074430166206b0b296c2",
	"power/tiny/O,DeclaredLayout":      "1b02352461192ffc0d380f0a1834aafd5c71083a503a074430166206b0b296c2",
	"tsp/quick/O":                      "f766703b3896406277c70c4f04c9b76efc0719602e77728e3925c9f41020a7ea",
	"tsp/quick/O,DeclaredLayout":       "f766703b3896406277c70c4f04c9b76efc0719602e77728e3925c9f41020a7ea",
	"tsp/tiny/O":                       "f766703b3896406277c70c4f04c9b76efc0719602e77728e3925c9f41020a7ea",
	"tsp/tiny/O,DeclaredLayout":        "f766703b3896406277c70c4f04c9b76efc0719602e77728e3925c9f41020a7ea",
	"health/quick/O":                   "8e9b4705e623ba3fa481be78a87af60d28e67a502cd73926a4bc6b6a863fac81",
	"health/quick/O,DeclaredLayout":    "8e9b4705e623ba3fa481be78a87af60d28e67a502cd73926a4bc6b6a863fac81",
	"health/tiny/O":                    "8e9b4705e623ba3fa481be78a87af60d28e67a502cd73926a4bc6b6a863fac81",
	"health/tiny/O,DeclaredLayout":     "8e9b4705e623ba3fa481be78a87af60d28e67a502cd73926a4bc6b6a863fac81",
	"perimeter/quick/O":                "4fa1cd0f389f944f5620a3d86f5e90adb234bde684f0c6e841390ab70ac0c5f2",
	"perimeter/quick/O,DeclaredLayout": "4fa1cd0f389f944f5620a3d86f5e90adb234bde684f0c6e841390ab70ac0c5f2",
	"perimeter/tiny/O":                 "4fa1cd0f389f944f5620a3d86f5e90adb234bde684f0c6e841390ab70ac0c5f2",
	"perimeter/tiny/O,DeclaredLayout":  "4fa1cd0f389f944f5620a3d86f5e90adb234bde684f0c6e841390ab70ac0c5f2",
	"voronoi/quick/O":                  "38470b74899948180e0b2ed639b10364d3eca893663c7e959b5ae99bee5594e5",
	"voronoi/quick/O,DeclaredLayout":   "38470b74899948180e0b2ed639b10364d3eca893663c7e959b5ae99bee5594e5",
	"voronoi/tiny/O":                   "38470b74899948180e0b2ed639b10364d3eca893663c7e959b5ae99bee5594e5",
	"voronoi/tiny/O,DeclaredLayout":    "38470b74899948180e0b2ed639b10364d3eca893663c7e959b5ae99bee5594e5",
}

// semaTinyParams are compile_cold's sizes (benchmark/workloads.go).
var semaTinyParams = map[string]olden.Params{
	"power":     {Size: 2, Iters: 1},
	"tsp":       {Size: 8},
	"health":    {Size: 1, Iters: 2},
	"perimeter": {Size: 2},
	"voronoi":   {Size: 8},
}

// semaHash walks the checked file in source order and hashes every
// expression's kind, position and type, every identifier's and
// declaration's resolved symbol (name, kind, owning function) and every
// call's target.
func semaHash(u *Unit) string {
	h := sha256.New()
	p := u.Sema
	sym := func(s *sema.Symbol) string {
		if s == nil {
			return "none"
		}
		return fmt.Sprintf("%s/%d/%s", s.Name, s.Kind, s.Func)
	}
	var expr func(e earthc.Expr)
	var stmt func(s earthc.Stmt)
	decl := func(d *earthc.VarDecl) {
		fmt.Fprintf(h, "decl %s %s %s\n", d.Name, d.Pos, sym(p.DeclOf(d)))
		if d.Init != nil {
			expr(d.Init)
		}
	}
	expr = func(e earthc.Expr) {
		if e == nil {
			return
		}
		typ := "nil"
		if t := p.TypeOf(e); t != nil {
			typ = t.String()
		}
		fmt.Fprintf(h, "%T %v %s", e, reflect.ValueOf(e).Elem().FieldByName("Pos").Interface(), typ)
		switch x := e.(type) {
		case *earthc.Ident:
			fmt.Fprintf(h, " sym=%s\n", sym(p.SymOf(x)))
		case *earthc.Call:
			switch ci := p.CallOf(x); {
			case ci == nil:
				fmt.Fprintf(h, " call=none\n")
			case ci.Func != nil:
				fmt.Fprintf(h, " call=%s\n", ci.Func.Def.Name)
			default:
				fmt.Fprintf(h, " call=builtin%d\n", ci.Builtin)
			}
			for _, a := range x.Args {
				expr(a)
			}
			if x.Place != nil {
				expr(x.Place.Arg)
			}
		default:
			h.Write([]byte("\n"))
		}
		switch x := e.(type) {
		case *earthc.Unary:
			expr(x.X)
		case *earthc.Binary:
			expr(x.X)
			expr(x.Y)
		case *earthc.Assign:
			expr(x.Lhs)
			expr(x.Rhs)
		case *earthc.IncDec:
			expr(x.X)
		case *earthc.Member:
			expr(x.X)
		case *earthc.Index:
			expr(x.X)
			expr(x.I)
		case *earthc.CondExpr:
			expr(x.C)
			expr(x.T)
			expr(x.F)
		}
	}
	stmts := func(ss []earthc.Stmt) {
		for _, s := range ss {
			stmt(s)
		}
	}
	stmt = func(s earthc.Stmt) {
		switch st := s.(type) {
		case *earthc.DeclStmt:
			decl(st.Decl)
		case *earthc.ExprStmt:
			expr(st.X)
		case *earthc.Block:
			stmts(st.Stmts)
		case *earthc.ParSeq:
			stmts(st.Stmts)
		case *earthc.IfStmt:
			expr(st.Cond)
			stmt(st.Then)
			stmt(st.Else)
		case *earthc.WhileStmt:
			expr(st.Cond)
			stmt(st.Body)
		case *earthc.DoStmt:
			stmt(st.Body)
			expr(st.Cond)
		case *earthc.ForStmt:
			stmt(st.Init)
			expr(st.Cond)
			expr(st.Post)
			stmt(st.Body)
		case *earthc.ForallStmt:
			stmt(st.Init)
			expr(st.Cond)
			expr(st.Post)
			stmt(st.Body)
		case *earthc.SwitchStmt:
			expr(st.Tag)
			for _, cc := range st.Cases {
				for _, v := range cc.Vals {
					expr(v)
				}
				stmts(cc.Body)
			}
		case *earthc.ReturnStmt:
			expr(st.X)
		case *earthc.LabeledStmt:
			stmt(st.Stmt)
		}
	}
	for _, g := range u.File.Globals {
		decl(g)
	}
	for _, fn := range u.File.Funcs {
		fmt.Fprintf(h, "func %s\n", fn.Name)
		stmt(fn.Body)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSemaGolden checks semaHash against semaGolden for every cell.
func TestSemaGolden(t *testing.T) {
	var diffs []string
	cells := 0
	for _, bm := range olden.All() {
		for _, size := range []struct {
			name   string
			params olden.Params
		}{{"quick", olden.QuickParams(bm)}, {"tiny", semaTinyParams[bm.Name]}} {
			for _, set := range []struct {
				name string
				opt  Options
			}{
				{"O", Options{Optimize: true}},
				{"O,DeclaredLayout", Options{Optimize: true, DeclaredLayout: true}},
			} {
				cell := bm.Name + "/" + size.name + "/" + set.name
				u, err := compile(bm.Name+".ec", bm.Source(size.params), set.opt)
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				cells++
				if got := semaHash(u); got != semaGolden[cell] {
					diffs = append(diffs, fmt.Sprintf("\t%q: %q,", cell, got))
				}
			}
		}
	}
	if len(diffs) != 0 {
		t.Errorf("%d of %d cells differ from semaGolden; the hashes are:\n%s",
			len(diffs), cells, strings.Join(diffs, "\n"))
	}
}

// restructureGolden pins, for each Olden program and halo at default, quick
// and tiny size and for each testdata/*.ec program, inlined and with
// NoInline, the sha256 of earthc.Print after the McCAT Phase I restructuring
// (InlineFunctions, then DesugarLoops and EliminateGotos on every function).
// A change to how the front end walks the AST must hold every cell.
var restructureGolden = map[string]string{
	"power/default/inline":       "91371caa679f0224d66a21263d4fded22740d2c3b0332866b64ecb9559589fca",
	"power/default/NoInline":     "2a76e0ef90f361511511a1b1f80ae513c50bade7f966c1888bee568a4aa354ed",
	"power/quick/inline":         "65c8bdd3e60fec0e6cbb6fc4adbb97b4865f70d7fc8e4d26fb6c06f711907ada",
	"power/quick/NoInline":       "6a5ae9fa62cece882db18425874efead2ed9b2ca0058418b58a140d5018ed004",
	"power/tiny/inline":          "8f08724d4416400737ebc71025537632ad4271d881e21b9a1cad16370d27b915",
	"power/tiny/NoInline":        "4eab4cb90afea730ef941ace790abafbf9bbae3567399d6f104f31668b5868a9",
	"tsp/default/inline":         "f587727bc8c76d2045f136941277c5894a6b960f156678eae582bd043bd9d9f0",
	"tsp/default/NoInline":       "d781ad3b4d62c755be2c7787a4bf8113f848fe41e887bbd996fe181d822af9dd",
	"tsp/quick/inline":           "51f2a521a1255930c9a5be92be1b599984c1bad1d64b76a9aeb40e363015e720",
	"tsp/quick/NoInline":         "721bb472c6e6c36c95f48e6fbff2d61e5b0053f2cc36dac0d02d974532493d6e",
	"tsp/tiny/inline":            "e427f04ddbcaba5e8b495f2cce9a56491ec5d05ab0aafad1f7393b31ad983341",
	"tsp/tiny/NoInline":          "8ac13a001f70cfa0b74754cd9edb083d1f59a5beefc260fd26c4888b1cddbe3d",
	"health/default/inline":      "42ea595ec7622f2948d38fec2efa7822d9fbae9f24d4f1deee1a2953b7dd787e",
	"health/default/NoInline":    "8a4f08476542c8b550e3429231dc41531e33c35c719c8dbd6318597f9094fe08",
	"health/quick/inline":        "1a5a84b58050d0df75350660b2a0d9a61ee0d15d2f870aeb1c80f0bf038fbee4",
	"health/quick/NoInline":      "fd138dd3f75227cd95a1478773a0311416ca276c304ab483c64c85bce6d9bfcf",
	"health/tiny/inline":         "091c3b94bb624d59f3109132c5be3110d3b5e61b3be252a874c339fc1cd3801d",
	"health/tiny/NoInline":       "2ecd12d769380075ec88f4bc8d720ccfb0c19c22803e69e111e4861ed7465037",
	"perimeter/default/inline":   "1f7431fd2c498a29f1624ccb1cac3d4145f86c760a669c212eda4d58ae3ad8b4",
	"perimeter/default/NoInline": "ae07f5a44b13cad01e7a14e6aad52b71235179ea790f93d0b531e8ea6e2097b1",
	"perimeter/quick/inline":     "3d9e29054d43c55146a58be3cc2ee71c180856ebd1ecd16c2b6204830a156538",
	"perimeter/quick/NoInline":   "ce479486d3c467e2025bd2132e0745b02515142ec63d124e367e3d8f5f926c29",
	"perimeter/tiny/inline":      "901d4e1007ac1fa90f887f52619871798a776ea943132eee38649fbde3695c39",
	"perimeter/tiny/NoInline":    "e23562dc06b71090355e0eab1e7f6f26e46ea3ab879b799911a1dd5a113e8121",
	"voronoi/default/inline":     "d2b56f247185270dc9db9f2582ce06e431d1a91d558477751a42aa8fad3fb8c0",
	"voronoi/default/NoInline":   "102fb81b26c2df7e605e909f5e51b698ef435092bde6ba3f2155c4f96d8cbc1d",
	"voronoi/quick/inline":       "73d755a0c002569f75b646a5701e347b6297c97e179377aefa518833f25ab4a0",
	"voronoi/quick/NoInline":     "b024e5c54c684ad9542b3c3920f98091a83e61c8311d1b5edf71a693a31beb80",
	"voronoi/tiny/inline":        "40486b86a9b03ba55fd66974a2f9039deee61ffd6e690a142ac5a5aebd8721b8",
	"voronoi/tiny/NoInline":      "b8e47e0e1143064216e6380a5f942b50db5b41b2001693a3d0bb391507c4afa1",
	"halo/default/inline":        "8270e1610193c469a76df072f8f23ec1908e8bcd57caa2095c9806b96ee1eac9",
	"halo/default/NoInline":      "8270e1610193c469a76df072f8f23ec1908e8bcd57caa2095c9806b96ee1eac9",
	"halo/quick/inline":          "8270e1610193c469a76df072f8f23ec1908e8bcd57caa2095c9806b96ee1eac9",
	"halo/quick/NoInline":        "8270e1610193c469a76df072f8f23ec1908e8bcd57caa2095c9806b96ee1eac9",
	"halo/tiny/inline":           "56a13a1e416e18bb2180d47d5842bdda3468c0e39ab00474ed0a66358028ee7e",
	"halo/tiny/NoInline":         "56a13a1e416e18bb2180d47d5842bdda3468c0e39ab00474ed0a66358028ee7e",
	"count.ec/inline":            "bb52680168ed55bf7bb05b72076607967a299649b693187576ddb5260cf08c1e",
	"count.ec/NoInline":          "b3e4514581411a5b4cc896163e443052ab8ba814e28a97f69e19a6b07d5b876f",
	"distance.ec/inline":         "4bba32dbd9163dfbddc1e548726737d3ac6d8983951f849a0f1682a068c1fa42",
	"distance.ec/NoInline":       "ef9dc9af4d117cbbbc81c3f8e184c20fdd308884c3f039fbae9ea11115db5fb3",
	"listsearch.ec/inline":       "2e0f659ca9c054069ccb8390970ac212c2a056d1044563c1f7bc0086422da7e7",
	"listsearch.ec/NoInline":     "bd7173c1bad18164e5339f4497baeedd07bf8c02ae875e849bbfd8b1dae591d2",
	"scale_point.ec/inline":      "97491abbc591fdef408f90c1457ccc978e35ee192eda297ea97010098fd8b7aa",
	"scale_point.ec/NoInline":    "34e47156a72c9a8864ca40574a7127cfb0d2ff706c42364249570a405f81c76f",
}

// restructureTinyParams are compile_cold's sizes (semaTinyParams) and halo
// at Size 2.
func restructureTinyParams(name string) olden.Params {
	if p, ok := semaTinyParams[name]; ok {
		return p
	}
	return olden.Params{Size: 2, Iters: 1}
}

// restructuredText parses src and runs the front end's restructuring passes
// as Pipeline.build does, returning the printed result.
func restructuredText(name, src string, inline bool) (string, error) {
	file, err := earthc.ParseFile(name, src)
	if err != nil {
		return "", err
	}
	if inline {
		earthc.InlineFunctions(file, earthc.InlineOptions{})
	}
	for _, fn := range file.Funcs {
		if err := earthc.DesugarLoops(fn); err != nil {
			return "", err
		}
		if err := earthc.EliminateGotos(fn); err != nil {
			return "", err
		}
	}
	return earthc.Print(file), nil
}

// TestRestructureGolden checks the restructured AST of every cell against
// restructureGolden.
func TestRestructureGolden(t *testing.T) {
	type source struct{ name, text string }
	var sources []source
	for _, bm := range append(olden.All(), olden.Halo()) {
		sources = append(sources,
			source{bm.Name + "/default", bm.Source(bm.DefaultParams)},
			source{bm.Name + "/quick", bm.Source(olden.QuickParams(bm))},
			source{bm.Name + "/tiny", bm.Source(restructureTinyParams(bm.Name))})
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
		sources = append(sources, source{filepath.Base(f), string(text)})
	}
	var diffs []string
	for _, src := range sources {
		for _, inline := range []bool{true, false} {
			cell := src.name + "/inline"
			if !inline {
				cell = src.name + "/NoInline"
			}
			text, err := restructuredText(src.name+".ec", src.text, inline)
			if err != nil {
				t.Fatalf("%s: %v", cell, err)
			}
			sum := sha256.Sum256([]byte(text))
			if got := hex.EncodeToString(sum[:]); got != restructureGolden[cell] {
				diffs = append(diffs, fmt.Sprintf("\t%q: %q,", cell, got))
			}
		}
	}
	if len(diffs) != 0 {
		t.Errorf("%d of %d cells differ from restructureGolden; the hashes are:\n%s",
			len(diffs), 2*len(sources), strings.Join(diffs, "\n"))
	}
}
