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
	"power/default/O":                    "2f94891e2ed17cc9ed008fb8269c994d7a86538023359aeb8353e1e619e3b40b",
	"power/default/O,NoInline":           "5e0c3e05bf9e85beb785cc5fd594e57421031ff8164a82651f8b3b9479af9b18",
	"power/default/O,DeclaredLayout":     "5410a4895c75e74cf54989151227ce3a1bccfbf5fff2a6200befb6f2d4cb833e",
	"power/quick/O":                      "087fccd892f42800d7a634c7e8383c964cf434e575ce9286a1a899fd7fe02209",
	"power/quick/O,NoInline":             "641609b927036d2c0e99973851c53a09e1883bb91bc0f3ead0a27731577beb6d",
	"power/quick/O,DeclaredLayout":       "62789553c8165e3453604c20bbab1cdeaaafa23ccbacbfd386d38853229b2de9",
	"tsp/default/O":                      "7ac77df2d2f73ed544b2691b28186e9629470ce4072985c8037860f89714f6b5",
	"tsp/default/O,NoInline":             "50b07689b133823b9b5051e0e1282bcd561b7ac8633e0602ac99bed093327ebe",
	"tsp/default/O,DeclaredLayout":       "be678ae15448fe0002ae7a5cc0ef5fa11ad18e701da97284b1dd12979d349e20",
	"tsp/quick/O":                        "d1ee5fa2778a6672a7e90415a37183dde6f3f883291973f96a23e670d1e7eb61",
	"tsp/quick/O,NoInline":               "4f7a3cd87c8531a713ff19cd5a2292e31a0ca58914c9f9ea68ed36e1cef25ea4",
	"tsp/quick/O,DeclaredLayout":         "58cbc67ae1b00fe2ebf701ed15eb7d0dd305bd34d2c68f0cf1a2a15f404c6e5e",
	"health/default/O":                   "35eb4f4180f6332f01f4682e3ec27155a4586aff0f774d09be2734b2d3dc1006",
	"health/default/O,NoInline":          "5b486d1cbb439886b7f423ca070526eabe9372966e9571b4330c275266fa7dc6",
	"health/default/O,DeclaredLayout":    "396d30fd79a5582f37f528344f0fc1031b7d7738c66f2e45b8f9e857632a2fe6",
	"health/quick/O":                     "1a04f34a253026d70e35b1e7d7b4069d465bb8a973071fe2bb0577b44ad5dfdc",
	"health/quick/O,NoInline":            "fc140d9c0f36850ee23118a09158459ee89dd21b5872b4d12580ec32f69cc80d",
	"health/quick/O,DeclaredLayout":      "9dbe70e39c7eaeea95070868a83f903126993d8916770ecd431ee23dcd1099ee",
	"perimeter/default/O":                "113110e599cfd2d81eb26ad28bf822eb4035361b935be8409af5bf4dd2cdfd84",
	"perimeter/default/O,NoInline":       "d8f855040ce3b4a06bb33349f6e9fa57db9827601eb595ec7f447f1c2b7244a2",
	"perimeter/default/O,DeclaredLayout": "996b8d9522d7c25189c4e7e9b85abd1c7a460de9abcbc6f403993fb65e8b83cf",
	"perimeter/quick/O":                  "8c8d488b16b87e6747fdbefb5ae026c4b8b88bd8b864af960fb48c5565aa966d",
	"perimeter/quick/O,NoInline":         "cf8287648ad16996658521e6f051a319b7a674927d53285ccc2f5b05c3fef6c1",
	"perimeter/quick/O,DeclaredLayout":   "dd6dbc860cfebfda5dba7d4ca429a0feeea416d483ba1c47f23ed3189cf1927a",
	"voronoi/default/O":                  "32c18b784d8b6b92d90061ae5cf876dd449d225dac8e2387f98eaa88565b1351",
	"voronoi/default/O,NoInline":         "c377a0e36a29d2ad3fb460bec5c69ca025dc7e97046f586744c30d92fe2007aa",
	"voronoi/default/O,DeclaredLayout":   "65f95cb50f12218551b6dca202649b029722740e028fbce3ed257c3c5a022bb7",
	"voronoi/quick/O":                    "b76268eab8ffcaf6b8ed402b3cf2a83750aff194e070992dd06fc9687014845a",
	"voronoi/quick/O,NoInline":           "a47e40950d87a72df44ac0003c70336f1d06cc10ce57797107536d76639fb495",
	"voronoi/quick/O,DeclaredLayout":     "02404f5bc35759167b90a94d8f6589fe8f9ebe52394764a97f31c7dcf8ab1100",
	"halo/default/O":                     "ec806be148e420a4e87741c42fd3ab241b41144dfceaab8aae7bf453f77e03fb",
	"halo/default/O,NoInline":            "ec806be148e420a4e87741c42fd3ab241b41144dfceaab8aae7bf453f77e03fb",
	"halo/default/O,DeclaredLayout":      "ec806be148e420a4e87741c42fd3ab241b41144dfceaab8aae7bf453f77e03fb",
	"count.ec/O":                         "b1a816d28c18b6e711776a26257c96157ec56867ee48cc77f7aec1040d0484c4",
	"count.ec/O,NoInline":                "10513d33d973103448407a10e3febb79867c602072663bea7fff2344a28a71af",
	"count.ec/O,DeclaredLayout":          "b1a816d28c18b6e711776a26257c96157ec56867ee48cc77f7aec1040d0484c4",
	"distance.ec/O":                      "aba6692023724e029c80392b73d4e1ba5b3e38387253ae49a6b361afc47b94c3",
	"distance.ec/O,NoInline":             "51d1d78c4c71859dcbbe5855184cdee7f2ae6927fbcdc2e229532beaf812b30b",
	"distance.ec/O,DeclaredLayout":       "aba6692023724e029c80392b73d4e1ba5b3e38387253ae49a6b361afc47b94c3",
	"listsearch.ec/O":                    "de1f3d7c9076982e0d17fa267e66a5b96a77582337ce752359db6bf628192def",
	"listsearch.ec/O,NoInline":           "8567e70da4d1c07508ea05d86d6395c77878e949bbc0a7fbf21b4ec3912bb170",
	"listsearch.ec/O,DeclaredLayout":     "de1f3d7c9076982e0d17fa267e66a5b96a77582337ce752359db6bf628192def",
	"scale_point.ec/O":                   "d8f9661b833e3442d9cfeff5cb5144b31819789c228d0972bf9289d51e5e2c8d",
	"scale_point.ec/O,NoInline":          "88423131d049f757869e5aaae7db045b8b54fe665b3cb1c41aeefb336d0bba8a",
	"scale_point.ec/O,DeclaredLayout":    "d8f9661b833e3442d9cfeff5cb5144b31819789c228d0972bf9289d51e5e2c8d",

	// Profile-guided builds (Pipeline.ProfileCycle on 4 nodes), where the
	// measured factors scale tuple frequencies non-uniformly.
	"power/quick/O,PGO":     "087fccd892f42800d7a634c7e8383c964cf434e575ce9286a1a899fd7fe02209",
	"tsp/quick/O,PGO":       "d165821ede452df645bf8c1b519720a887e439aceae3f886ec134bc27ba1a362",
	"health/quick/O,PGO":    "1a04f34a253026d70e35b1e7d7b4069d465bb8a973071fe2bb0577b44ad5dfdc",
	"perimeter/quick/O,PGO": "8c8d488b16b87e6747fdbefb5ae026c4b8b88bd8b864af960fb48c5565aa966d",
	"voronoi/quick/O,PGO":   "66bd7ff014e8aff6a272a55711d0dc81e9fd11df8a91db12300e387659821ef1",
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
	"voronoi/default/O":                  "92aa7f3165bc74bb3a98b0bd1dc638ece06b55b9819daa1240e18c125f46ae4b",
	"voronoi/default/O,NoInline":         "38ea79dc3955678794da867f25a50cfaec74e61a5f5d463e5849ff8b95b227bd",
	"voronoi/default/O,DeclaredLayout":   "d6ddf0bbed612c6f9472821af28003521bf9fc6ffff1ab906c5b541fd550b572",
	"voronoi/quick/O":                    "92aa7f3165bc74bb3a98b0bd1dc638ece06b55b9819daa1240e18c125f46ae4b",
	"voronoi/quick/O,NoInline":           "38ea79dc3955678794da867f25a50cfaec74e61a5f5d463e5849ff8b95b227bd",
	"voronoi/quick/O,DeclaredLayout":     "d6ddf0bbed612c6f9472821af28003521bf9fc6ffff1ab906c5b541fd550b572",
	"halo/default/O":                     "900d50258b822b9e189300f33f7d53b87ae8d3ba42cf22e1eacf49af79c03c7b",
	"halo/default/O,NoInline":            "900d50258b822b9e189300f33f7d53b87ae8d3ba42cf22e1eacf49af79c03c7b",
	"halo/default/O,DeclaredLayout":      "900d50258b822b9e189300f33f7d53b87ae8d3ba42cf22e1eacf49af79c03c7b",
	"count.ec/O":                         "bebc223fb4591f9a9782cf6cc90b99c379ffe29b7f8368acc490d3a42c65fde5",
	"count.ec/O,NoInline":                "9956ea3cb42a43f760465e5509ecb6b520f4fbce0cac70de79edc3a04c1840d0",
	"count.ec/O,DeclaredLayout":          "bebc223fb4591f9a9782cf6cc90b99c379ffe29b7f8368acc490d3a42c65fde5",
	"distance.ec/O":                      "6f9738ff2a60a6c777e83a6fae7372bc39a055f65248d32c884a1af809ade91c",
	"distance.ec/O,NoInline":             "53fbc8884b1eb7e6c63e6c90be14d674dfe49f0670b38f3826fce6dab4161749",
	"distance.ec/O,DeclaredLayout":       "6f9738ff2a60a6c777e83a6fae7372bc39a055f65248d32c884a1af809ade91c",
	"listsearch.ec/O":                    "2c1b9133eddebe2c68916ed2a29c3a325b999886b9d45288728934a0615f0d73",
	"listsearch.ec/O,NoInline":           "fec8df5312c751bd53ea2f4b457feb34213529703fe7516868918997f30e5269",
	"listsearch.ec/O,DeclaredLayout":     "2c1b9133eddebe2c68916ed2a29c3a325b999886b9d45288728934a0615f0d73",
	"scale_point.ec/O":                   "877b3c329ccfd48fe9811f5c62154951ca7c82be3f29655b2aa1863bea61578f",
	"scale_point.ec/O,NoInline":          "82173d3c5849dda8e7266d01918057674c85baf492d6bc803768e8537836abfd",
	"scale_point.ec/O,DeclaredLayout":    "877b3c329ccfd48fe9811f5c62154951ca7c82be3f29655b2aa1863bea61578f",
	"power/quick/O,PGO":                  "8a8a126c63415fe2475245f2c7b32464317879433a2032207153a441625ce7c9",
	"tsp/quick/O,PGO":                    "d05754e86c21c4a363649050ac4585fd4f9c31422848425c1adf78bd84dfe217",
	"health/quick/O,PGO":                 "35b7ec21c9496b128bbba97e0fcf6f855f12d5db5ad74e69e9eb2342fe095cea",
	"perimeter/quick/O,PGO":              "694db5af2f118b826529f35737547adaf6782284ede64002946c2f15b34590ef",
	"voronoi/quick/O,PGO":                "5d139fd25c19028d518ffa54965c8fa9ae19e5ab99ebe30fee06ab9876ab5fd9",
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
