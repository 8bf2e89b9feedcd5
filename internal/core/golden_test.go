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
	"power/default/O":                    "1409e7cb84b2b6c4e3e224801f8144c52c2ac8b1d4ba69306305a67b6d271603",
	"power/default/O,NoInline":           "f055cfd4baeb6f8a2aafffe9478f2799ec7aef0150f4d41d7ca36fad5943dc24",
	"power/default/O,DeclaredLayout":     "8198e13b62c222813138d02b5c5056bb21ffe07ab7253e8c5bf7ba096ada0e47",
	"power/quick/O":                      "a916b51a1d3c03793e2a25fb2efdd66f380c97e81e70c0da0664f33152e164f7",
	"power/quick/O,NoInline":             "d83e550488eb5c63b9d70a679e30c14a1b3653c19b8710ca9b6a264b670d4887",
	"power/quick/O,DeclaredLayout":       "a34b8e18b08821ba5a63a75ca6f8c1c0a4a2e755f6c0f78ef67ec13c69f110dd",
	"tsp/default/O":                      "549e51bcd8cecad80f67e8c121237b031e4a2cc8b6d3f05a0268df1f258839d0",
	"tsp/default/O,NoInline":             "f1de66e5989725888004a9f859e56cced8b9911e44d0198b307e4b525230fcd1",
	"tsp/default/O,DeclaredLayout":       "7fa62d3bea44a658c56b9a1848e95ead3e56176d53d9af5ff39e619287598089",
	"tsp/quick/O":                        "5cdc48e3e65cf4fb0efe2c16095f874c963efef0418e475ef89f9be313c7587f",
	"tsp/quick/O,NoInline":               "c4b3534dad25bd589eef8cf70aa701f7da124fcaea9531e26b462c51bbe7372f",
	"tsp/quick/O,DeclaredLayout":         "8dca2411bfccbc9a79b5075e11ded6a6a3b300bc446a0c4dbb5591c5430c0f0b",
	"health/default/O":                   "1f95d9d064a38791fad5d8d309726c011d453512e330e92e96b0b9e21f58acd9",
	"health/default/O,NoInline":          "2cfe222727659cb60698316376036312bc76fceacfa56affe80faea57ffc545d",
	"health/default/O,DeclaredLayout":    "f760fe46730de58ff8c252d448855d36cb4b6fde3546c41bec98215ab13f35b9",
	"health/quick/O":                     "c2d7e21b32cee460ee5acc5063789a8e86a1569347a5082a8200f90c83b77150",
	"health/quick/O,NoInline":            "1afdad5aac0d7f3a9a88d80917172d6e868e4b693118c3819cbca0275218ede7",
	"health/quick/O,DeclaredLayout":      "c66baf8d23b1cd6b20ff643b49fd54ea7d455d2d611c423a458702e98056d841",
	"perimeter/default/O":                "b77425e8eb663c8644d120e490405a8c2dff13d4289e536883a3d20ab0ec32b3",
	"perimeter/default/O,NoInline":       "fc42f77fb844df225a1e111bd2905937fd23bc6a8085318a5fb0b3dbbcd99505",
	"perimeter/default/O,DeclaredLayout": "7eac0765ba3caf19ad5b0d2341f95aaac9de12265a3c94982ab6f0c12edf3677",
	"perimeter/quick/O":                  "f55cfb9efc9123a649d4d93147193507f25a69f83949704979d5450fcd13d018",
	"perimeter/quick/O,NoInline":         "49341291c22b07358d57b5d3f4ec68aa238f728b6581b75c7c67c8fb53b123f2",
	"perimeter/quick/O,DeclaredLayout":   "3e1132c6138d9ecb91da2656759388753f7759814f827e7d9e418d85183450f3",
	"voronoi/default/O":                  "2b926ba3207f8ad3b09f963a5019088bbfd919bb1e282aa4b5547d460df99357",
	"voronoi/default/O,NoInline":         "8055cde1ff484de18487b566bc16d1041b46ed7cd080a8a24428716e74700004",
	"voronoi/default/O,DeclaredLayout":   "b189381784caa454238f9b0253278495e4bbca59b17513c3e82bfe63a0fc42a8",
	"voronoi/quick/O":                    "49dd06ef971033ebaba3cde030a9a642b92baa87c6bbd54eac2f02831c437c40",
	"voronoi/quick/O,NoInline":           "7efbbb130eaa7d3031cc32820e3d12c2f75e7226c3bf2630d31f082d794855dd",
	"voronoi/quick/O,DeclaredLayout":     "cad44117c5f4bfb8d9d15c2ed2354918b6f0a1928e0214b52c60e08ba47c5d1c",
	"halo/default/O":                     "458519640d11ee3ae55a8ce923eeadb3a8cec147ffc6c0f9d09901d203a5b7fa",
	"halo/default/O,NoInline":            "458519640d11ee3ae55a8ce923eeadb3a8cec147ffc6c0f9d09901d203a5b7fa",
	"halo/default/O,DeclaredLayout":      "458519640d11ee3ae55a8ce923eeadb3a8cec147ffc6c0f9d09901d203a5b7fa",
	"count.ec/O":                         "96cb3a77741cdb798e9fbf10a4ed79e2c7264c7c858e5cff8f0fab93fbb3595e",
	"count.ec/O,NoInline":                "434c7345576e3ab97a57845eea8ff91497a804c90db1f87cba91324cff3151db",
	"count.ec/O,DeclaredLayout":          "96cb3a77741cdb798e9fbf10a4ed79e2c7264c7c858e5cff8f0fab93fbb3595e",
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
	"power/quick/O,PGO":     "a916b51a1d3c03793e2a25fb2efdd66f380c97e81e70c0da0664f33152e164f7",
	"tsp/quick/O,PGO":       "4dc2da4df57fa73acded4b1f956e91cf0b225a40afc55e0c583131377fcce2e6",
	"health/quick/O,PGO":    "c2d7e21b32cee460ee5acc5063789a8e86a1569347a5082a8200f90c83b77150",
	"perimeter/quick/O,PGO": "f55cfb9efc9123a649d4d93147193507f25a69f83949704979d5450fcd13d018",
	"voronoi/quick/O,PGO":   "28fbc3b37e9b8c97220aa743c73bda6711322970419c16bf3e6585022986c674",
}

// placementSetsGolden pins, for every compiledCodeGolden cell, the sha256 of
// the possible-placement sets the compile selected from (see
// placementSetsHash). A change that must emit the same code from the same
// analysis holds these too, down to the last bit of every frequency.
var placementSetsGolden = map[string]string{
	"power/default/O":                    "4a6499a8fc0bec99023b01b87e6a5e1f4b1228b4a4bb5817643da9c66753f91d",
	"power/default/O,NoInline":           "a3be4e35e124db2243789af9f98ffba4cdb21b87a9b04c17af2fe1d6b96503ff",
	"power/default/O,DeclaredLayout":     "4014f45561430c19987581435f4e917602c93ec8745925785d222301d120e162",
	"power/quick/O":                      "4a6499a8fc0bec99023b01b87e6a5e1f4b1228b4a4bb5817643da9c66753f91d",
	"power/quick/O,NoInline":             "a3be4e35e124db2243789af9f98ffba4cdb21b87a9b04c17af2fe1d6b96503ff",
	"power/quick/O,DeclaredLayout":       "4014f45561430c19987581435f4e917602c93ec8745925785d222301d120e162",
	"tsp/default/O":                      "079913715180f54c3535372f072fee5cfba3e52f1a45bd5c41aca54cc3eaa9ac",
	"tsp/default/O,NoInline":             "ff59746e346b833cd32aa3d594f1cc510a490ff918982a07626bb14aecc8f8de",
	"tsp/default/O,DeclaredLayout":       "2efe3ff5f7fc8ec9aa1fc46d448db62bebbf6dff679b80c5afefaf8a0f7f9c76",
	"tsp/quick/O":                        "079913715180f54c3535372f072fee5cfba3e52f1a45bd5c41aca54cc3eaa9ac",
	"tsp/quick/O,NoInline":               "ff59746e346b833cd32aa3d594f1cc510a490ff918982a07626bb14aecc8f8de",
	"tsp/quick/O,DeclaredLayout":         "2efe3ff5f7fc8ec9aa1fc46d448db62bebbf6dff679b80c5afefaf8a0f7f9c76",
	"health/default/O":                   "9ce5f3cc191f6e110a971822903ec5c6502dcb23b2a451bff87cda8493b3f5bf",
	"health/default/O,NoInline":          "61c4de0ca3d7541d51ea50db1c4df5e44e285b0e1c29ff6db8f6c2bdc571727d",
	"health/default/O,DeclaredLayout":    "58b65f56bd7a2f754e6972761e0900697504af173fa3846f486cce5282b5310f",
	"health/quick/O":                     "9ce5f3cc191f6e110a971822903ec5c6502dcb23b2a451bff87cda8493b3f5bf",
	"health/quick/O,NoInline":            "61c4de0ca3d7541d51ea50db1c4df5e44e285b0e1c29ff6db8f6c2bdc571727d",
	"health/quick/O,DeclaredLayout":      "58b65f56bd7a2f754e6972761e0900697504af173fa3846f486cce5282b5310f",
	"perimeter/default/O":                "23502c325e906b588725d34851cab6bfa737a05999ab3e7c7941117e341c5eb6",
	"perimeter/default/O,NoInline":       "80998c6bbab3ed05b0c33185b2c4b43abf52d956fe5900206b00b997fe2dc031",
	"perimeter/default/O,DeclaredLayout": "36c085bc18826fa5380eab97efb7ac99197b28dc8f94fbef57540e38644d2250",
	"perimeter/quick/O":                  "23502c325e906b588725d34851cab6bfa737a05999ab3e7c7941117e341c5eb6",
	"perimeter/quick/O,NoInline":         "80998c6bbab3ed05b0c33185b2c4b43abf52d956fe5900206b00b997fe2dc031",
	"perimeter/quick/O,DeclaredLayout":   "36c085bc18826fa5380eab97efb7ac99197b28dc8f94fbef57540e38644d2250",
	"voronoi/default/O":                  "9efdfb2cc71e09dad13f3c66813fc68172fa8be0c9cc10fd75cde66620e2abc4",
	"voronoi/default/O,NoInline":         "73bd2c566408523181e034df3982b245bb81422d0dc4e9792f95a26f9ac3c603",
	"voronoi/default/O,DeclaredLayout":   "ed661d743371234d552d0c2c61ca7b7215edda3fb466f70fae178b0ef0245575",
	"voronoi/quick/O":                    "9efdfb2cc71e09dad13f3c66813fc68172fa8be0c9cc10fd75cde66620e2abc4",
	"voronoi/quick/O,NoInline":           "73bd2c566408523181e034df3982b245bb81422d0dc4e9792f95a26f9ac3c603",
	"voronoi/quick/O,DeclaredLayout":     "ed661d743371234d552d0c2c61ca7b7215edda3fb466f70fae178b0ef0245575",
	"halo/default/O":                     "f9ed658e6ff8f7cd14726675d5bdf9c9fbc8e30d9a27389592e44adda9206276",
	"halo/default/O,NoInline":            "f9ed658e6ff8f7cd14726675d5bdf9c9fbc8e30d9a27389592e44adda9206276",
	"halo/default/O,DeclaredLayout":      "f9ed658e6ff8f7cd14726675d5bdf9c9fbc8e30d9a27389592e44adda9206276",
	"count.ec/O":                         "ab4564b0275d04ed8958e5e732589b726c0812b7cae967efdfae5338f5758b5e",
	"count.ec/O,NoInline":                "ccacf0036fc896929ca7d1c1f871462f7b1a3378f93057954543fcd7feae5e32",
	"count.ec/O,DeclaredLayout":          "ab4564b0275d04ed8958e5e732589b726c0812b7cae967efdfae5338f5758b5e",
	"distance.ec/O":                      "6f9738ff2a60a6c777e83a6fae7372bc39a055f65248d32c884a1af809ade91c",
	"distance.ec/O,NoInline":             "53fbc8884b1eb7e6c63e6c90be14d674dfe49f0670b38f3826fce6dab4161749",
	"distance.ec/O,DeclaredLayout":       "6f9738ff2a60a6c777e83a6fae7372bc39a055f65248d32c884a1af809ade91c",
	"listsearch.ec/O":                    "e12fa3a7aca143ad9987ef9d38132299331639b4accf4b2f4147e4cc864cc09c",
	"listsearch.ec/O,NoInline":           "ae72166d5b2f80e4e0bc915ae629e4c0a8982412d9f8fc8ad46979c3ac8ed5ca",
	"listsearch.ec/O,DeclaredLayout":     "e12fa3a7aca143ad9987ef9d38132299331639b4accf4b2f4147e4cc864cc09c",
	"scale_point.ec/O":                   "877b3c329ccfd48fe9811f5c62154951ca7c82be3f29655b2aa1863bea61578f",
	"scale_point.ec/O,NoInline":          "82173d3c5849dda8e7266d01918057674c85baf492d6bc803768e8537836abfd",
	"scale_point.ec/O,DeclaredLayout":    "877b3c329ccfd48fe9811f5c62154951ca7c82be3f29655b2aa1863bea61578f",
	"power/quick/O,PGO":                  "4a6499a8fc0bec99023b01b87e6a5e1f4b1228b4a4bb5817643da9c66753f91d",
	"tsp/quick/O,PGO":                    "c6569da1c5c0a3e4578cedd97510df028d8a58b5f96f21ce95d81a1c141205c3",
	"health/quick/O,PGO":                 "b518f56eaf6b988d1bafdc0a3f9ad9f69b6a3d65d501311426c528a774670939",
	"perimeter/quick/O,PGO":              "e197c259d85fa1d628a2d7871fee5f727d4877dd330ca9ca06f66bcf4a78224f",
	"voronoi/quick/O,PGO":                "f1063e0402d9d5aacbf8aec9ef421c72d550b9c1dd8547d00f8c3b32c8b90fb2",
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
// set, and each forall's ForallHeads set, in walk order: each tuple's
// pointer name, offset, full-precision frequency, Dlist, CrossedW and
// CrossedR, tuples sorted by (name, offset).
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
			if fa, ok := s.(*simple.Forall); ok {
				if hs := u.Placement.ForallHeads[fa]; hs.Len() > 0 {
					writeSet("H", i, hs.Tuples())
				}
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
	{6, "4097da93a3ddb3943ce329a37836bc0f7f274d915424433b706c3467136eec22"},
	{7, "901ce1d67ea8046c9b7cb963719c739237e02f5b9452ecbf4d937ed3f9eb0e78"},
	{8, "5523fc39a9e98bedbf8aee806e04316c8c449237ff429e91eab230f15644f22d"},
	{9, "13d166df82fcddda76b86a7b72a49ae1c1e3f0259a1c8bb8aace0dff7d5c55fb"},
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
	"tsp/quick/O":                      "27f08d59551417557d729a90f858c3369232ee433d7b7536bebf8d10c8f98423",
	"tsp/quick/O,DeclaredLayout":       "27f08d59551417557d729a90f858c3369232ee433d7b7536bebf8d10c8f98423",
	"tsp/tiny/O":                       "27f08d59551417557d729a90f858c3369232ee433d7b7536bebf8d10c8f98423",
	"tsp/tiny/O,DeclaredLayout":        "27f08d59551417557d729a90f858c3369232ee433d7b7536bebf8d10c8f98423",
	"health/quick/O":                   "05d0c91eef34b52092a704db401c5bacf03fe542d3dfa7db4f12236a9fb8ed18",
	"health/quick/O,DeclaredLayout":    "05d0c91eef34b52092a704db401c5bacf03fe542d3dfa7db4f12236a9fb8ed18",
	"health/tiny/O":                    "05d0c91eef34b52092a704db401c5bacf03fe542d3dfa7db4f12236a9fb8ed18",
	"health/tiny/O,DeclaredLayout":     "05d0c91eef34b52092a704db401c5bacf03fe542d3dfa7db4f12236a9fb8ed18",
	"perimeter/quick/O":                "881f8148b9e7146fcef171d7160ec71e4bed8427ab3b5146949ccd12680e852e",
	"perimeter/quick/O,DeclaredLayout": "881f8148b9e7146fcef171d7160ec71e4bed8427ab3b5146949ccd12680e852e",
	"perimeter/tiny/O":                 "881f8148b9e7146fcef171d7160ec71e4bed8427ab3b5146949ccd12680e852e",
	"perimeter/tiny/O,DeclaredLayout":  "881f8148b9e7146fcef171d7160ec71e4bed8427ab3b5146949ccd12680e852e",
	"voronoi/quick/O":                  "6dc97d500e613a9e3f0aa8f25ed94343f6d28317fa224348ee0cbf932a977cdb",
	"voronoi/quick/O,DeclaredLayout":   "6dc97d500e613a9e3f0aa8f25ed94343f6d28317fa224348ee0cbf932a977cdb",
	"voronoi/tiny/O":                   "6dc97d500e613a9e3f0aa8f25ed94343f6d28317fa224348ee0cbf932a977cdb",
	"voronoi/tiny/O,DeclaredLayout":    "6dc97d500e613a9e3f0aa8f25ed94343f6d28317fa224348ee0cbf932a977cdb",
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
	"tsp/default/inline":         "2d96d8b61b70fae5eb80e8e7ae71a8a3a1852a5d0084361ff3809301cd14c5fd",
	"tsp/default/NoInline":       "1bafb9f5da91cd5795e44250d1ac22f0ca4feec4f2991714719df36193328a24",
	"tsp/quick/inline":           "e167f4436c3344c88d167939334f1a257b00e20250dc24bb4fa13b8059b21845",
	"tsp/quick/NoInline":         "88f0a9d712999d0067b9c184597a3577eed16abe1dffda7e1ae217847c62502b",
	"tsp/tiny/inline":            "258394aa290d7d775a88b204bd5f70762a11904efc8e7bd3d3b73c021e170807",
	"tsp/tiny/NoInline":          "b3f4e47956783e33c6bbe89fd6c7408c5404d04ee38633f12a27db89c85f5fd0",
	"health/default/inline":      "a66b701fe89b72d76eae69bf273a755b150a9572d75e3ae9eeb7eaa4aa6aacb3",
	"health/default/NoInline":    "56ca6e5a3ae0124c20b50c99f2fb5e031f17a04f0162e4964d98cc951743f417",
	"health/quick/inline":        "66d34936dba6964b2c8957b6c464666922450bf03daeea10cb4c4a5dddd63e11",
	"health/quick/NoInline":      "eaebbc2872263a8ca97806ae444194da38a801b2aef6a75d8da62769a7fa829e",
	"health/tiny/inline":         "c3efdf049293d318b4c5bbf2a8a97622dc59bc01301d67a669e2c9b922b420bf",
	"health/tiny/NoInline":       "01ec01d5e5d0d8d4c5ec2122626a6327388497945d9a688e67c606bbc151ccbb",
	"perimeter/default/inline":   "c1e80a0595f8604a216bc8ac4b0cd85feec6b3c9ca69ea7cd006edde2bed0989",
	"perimeter/default/NoInline": "68f2d7cc235990b6ef7ece892e25a31ca5de119d9c0f28b5ed0d6204a35ce4a5",
	"perimeter/quick/inline":     "01eaaee6d78588e9c08a1eda3ad548406f802663fefdcba4bc94c661d813ed53",
	"perimeter/quick/NoInline":   "06cee20515069c245d97df31df74a8ba24d957b67cb97563351decee09b01873",
	"perimeter/tiny/inline":      "3497de7b40f3e29238f199a95ade8c5d91e23635f6df6ccb9226aff96aea5d23",
	"perimeter/tiny/NoInline":    "75530e2cdbd53d79a48b1a7a65041702bc3a9fcf26878f59324282c6402deece",
	"voronoi/default/inline":     "3c2439da88b11197f4a2aab00c5008a332f6ffcc42f6f3112af95e8169e10091",
	"voronoi/default/NoInline":   "530cf5639432da83297fdc75e02a3967f94e0e3aa5e6f23eccc53046f1c0994d",
	"voronoi/quick/inline":       "9ef22f89cc8a2095d316fdab6badfb83d827a8e95e1765a61e544a899932adcb",
	"voronoi/quick/NoInline":     "5b396563157edeee6bca2a10db68013491ed48078f08e81968298cc037f2a117",
	"voronoi/tiny/inline":        "c8e8971884972eb74d5046f792b44a260be37752ffaaa7836b103918c9572f6e",
	"voronoi/tiny/NoInline":      "e71ee1881cd7ff82ca506184c70b9f2e0cca186d5d624d1fb4d7dc26354207f8",
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
