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
	"tsp/default/O":                      "c6c866f862908f27f54e2cf1bdcb871653869f74dc6c80ba32feee40615c3c14",
	"tsp/default/O,NoInline":             "ce81950a09ed9d409482565248245ab3358c260a36429b041f7b1bb85ed743ab",
	"tsp/default/O,DeclaredLayout":       "c767adc80818b0528c3e9e5c711fe8d8bdc0a29609a9d2f69da784c18576281e",
	"tsp/quick/O":                        "d6645f2065d20a92b4aa5d9016198389dcb18c3a64cf7a7b2376c7276e800714",
	"tsp/quick/O,NoInline":               "ab6728a1fcd54b889280403ee228ddd96e1f1a2517b869a3d533d9d7c1ffea2a",
	"tsp/quick/O,DeclaredLayout":         "6d8d78d2084ab27acecf8498f3fa1ef2d3a8b5945b1a3f73b6187e59fda35a80",
	"health/default/O":                   "c2ee13babc89e6f5058cb673b892e9dae6cf8f63b33ed5e630a71a4377bd8d0b",
	"health/default/O,NoInline":          "bf0b807b39bb16f830acf4b77e12d1f0592ad862709ed6336035d0e3713f6fcb",
	"health/default/O,DeclaredLayout":    "8a2a0ef3f761eeb1a2740fdd0fbc805b6fbf43cfff898df4313f3c5f5aa1ec82",
	"health/quick/O":                     "e2277712ed1732f5549a03ac3c2ee16d839a2384d9c57b2d15663ff3dc0f1473",
	"health/quick/O,NoInline":            "76caa65c584b58c2fbbd1c1d61d7cb62feaa30c766fb259688db916d80dbda2f",
	"health/quick/O,DeclaredLayout":      "c17e381567fb7c57895c8d6c224776c4ae827bdc55fe111950685fd66244fbb9",
	"perimeter/default/O":                "3f4e965b906496d5aa7041f5e4699a2e11c273848260dcbc70fa782698934604",
	"perimeter/default/O,NoInline":       "b85376218b67f035675e92837fe4f279c41960927ef4a12ca2cf0566920a4310",
	"perimeter/default/O,DeclaredLayout": "075265eb66134b7a08dd54d73997f7ec765877aab24d6acc630470365498f254",
	"perimeter/quick/O":                  "ac64d09265f03e7ca1dd422d55238cc2e31584199d6c988aed8e678f0203bbbb",
	"perimeter/quick/O,NoInline":         "c853c03e2f3ce25200daa2d61b6c3b39a67ab809061e901cd59edca211bd1fcf",
	"perimeter/quick/O,DeclaredLayout":   "257afdc2b0c56d1896768e500d9402472180f5e90de81bb600e5784d4f9e085c",
	"voronoi/default/O":                  "ab28cb05fd3e699b8f9c365ce3c9fa82df889d70b31c65a79760bf8991107c06",
	"voronoi/default/O,NoInline":         "a041846632e863063f2d5c4392e90d26586efa76f11a8beec71956c2bd889d63",
	"voronoi/default/O,DeclaredLayout":   "a3a8de12dbd045b45ee9cd4ba519b2087259b5669a61906e411a6f513f6a73a3",
	"voronoi/quick/O":                    "5c1ccc26fd6161699cc2e5cb016dc7276f6fafdb243a35e6366c3e184e8dab0e",
	"voronoi/quick/O,NoInline":           "4eafca0614eeccc10896d6e3aa77fe5ea36287b42fcc2d18d3db6f7f1667484c",
	"voronoi/quick/O,DeclaredLayout":     "9b4379d934723ac61f0fbf27cd6ab0ceff367c2c4a421925dc58c1606185bc47",
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
	"tsp/quick/O,PGO":       "8ce40c8da1b3ee4134c5b64a770614691d2f2438c64995343ea27d8fae468f7f",
	"health/quick/O,PGO":    "e2277712ed1732f5549a03ac3c2ee16d839a2384d9c57b2d15663ff3dc0f1473",
	"perimeter/quick/O,PGO": "ac64d09265f03e7ca1dd422d55238cc2e31584199d6c988aed8e678f0203bbbb",
	"voronoi/quick/O,PGO":   "f62bb9fa586f59125e245d2abd012048712f544ce232ed8d597605451d4a6084",
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
	"health/default/O":                   "58bb0782af068ffbaa0aa0b681d3d92dd6b78fd7719ecaf26e79076427362c14",
	"health/default/O,NoInline":          "61c4de0ca3d7541d51ea50db1c4df5e44e285b0e1c29ff6db8f6c2bdc571727d",
	"health/default/O,DeclaredLayout":    "76bd4d33739cd22081d2499901c96eca6d0811b5d6eae467ccc80f77fa02cf82",
	"health/quick/O":                     "58bb0782af068ffbaa0aa0b681d3d92dd6b78fd7719ecaf26e79076427362c14",
	"health/quick/O,NoInline":            "61c4de0ca3d7541d51ea50db1c4df5e44e285b0e1c29ff6db8f6c2bdc571727d",
	"health/quick/O,DeclaredLayout":      "76bd4d33739cd22081d2499901c96eca6d0811b5d6eae467ccc80f77fa02cf82",
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
	"health/quick/O,PGO":                 "35b7ec21c9496b128bbba97e0fcf6f855f12d5db5ad74e69e9eb2342fe095cea",
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
	"tsp/quick/O":                      "365b89854dbb4f13201a7ee12ec3b8569d654c3c0461720a22dbdfbebf9d9dd0",
	"tsp/quick/O,DeclaredLayout":       "365b89854dbb4f13201a7ee12ec3b8569d654c3c0461720a22dbdfbebf9d9dd0",
	"tsp/tiny/O":                       "365b89854dbb4f13201a7ee12ec3b8569d654c3c0461720a22dbdfbebf9d9dd0",
	"tsp/tiny/O,DeclaredLayout":        "365b89854dbb4f13201a7ee12ec3b8569d654c3c0461720a22dbdfbebf9d9dd0",
	"health/quick/O":                   "8e9b4705e623ba3fa481be78a87af60d28e67a502cd73926a4bc6b6a863fac81",
	"health/quick/O,DeclaredLayout":    "8e9b4705e623ba3fa481be78a87af60d28e67a502cd73926a4bc6b6a863fac81",
	"health/tiny/O":                    "8e9b4705e623ba3fa481be78a87af60d28e67a502cd73926a4bc6b6a863fac81",
	"health/tiny/O,DeclaredLayout":     "8e9b4705e623ba3fa481be78a87af60d28e67a502cd73926a4bc6b6a863fac81",
	"perimeter/quick/O":                "6ffa2fd1e8b2097b3089ae96a603ba6c44b9586ef8a00327cea736125651e395",
	"perimeter/quick/O,DeclaredLayout": "6ffa2fd1e8b2097b3089ae96a603ba6c44b9586ef8a00327cea736125651e395",
	"perimeter/tiny/O":                 "6ffa2fd1e8b2097b3089ae96a603ba6c44b9586ef8a00327cea736125651e395",
	"perimeter/tiny/O,DeclaredLayout":  "6ffa2fd1e8b2097b3089ae96a603ba6c44b9586ef8a00327cea736125651e395",
	"voronoi/quick/O":                  "780a9bb87b824130d0291addbb39d5d7b9d1b7b7c8f0ddf14bbcbdaf15100bf0",
	"voronoi/quick/O,DeclaredLayout":   "780a9bb87b824130d0291addbb39d5d7b9d1b7b7c8f0ddf14bbcbdaf15100bf0",
	"voronoi/tiny/O":                   "780a9bb87b824130d0291addbb39d5d7b9d1b7b7c8f0ddf14bbcbdaf15100bf0",
	"voronoi/tiny/O,DeclaredLayout":    "780a9bb87b824130d0291addbb39d5d7b9d1b7b7c8f0ddf14bbcbdaf15100bf0",
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
	"tsp/default/inline":         "740b68e041e3528f0e05d12b03b697cfd82364e2b824b592cba06531ae128943",
	"tsp/default/NoInline":       "b6c83436a586f42c19e10a5730b04e261554a6690bd5ea9fb28da6b18f42adc8",
	"tsp/quick/inline":           "57cfaac168a188c1c65d5ef4ceba46d6237f33d9a19a4ee29707abdddf22b64e",
	"tsp/quick/NoInline":         "3c694ad7bed813bb009fd22e1e707762810dd931c9b839cc4e28b03deb775eed",
	"tsp/tiny/inline":            "00825a17cf7c61dc850915749c3ced368bf3863cad637210331103d8861b2ea7",
	"tsp/tiny/NoInline":          "b28130eb5d80154ec80e2fa69d615623b20080037e0ddd6d14f69e69b465feb9",
	"health/default/inline":      "42ea595ec7622f2948d38fec2efa7822d9fbae9f24d4f1deee1a2953b7dd787e",
	"health/default/NoInline":    "8a4f08476542c8b550e3429231dc41531e33c35c719c8dbd6318597f9094fe08",
	"health/quick/inline":        "1a5a84b58050d0df75350660b2a0d9a61ee0d15d2f870aeb1c80f0bf038fbee4",
	"health/quick/NoInline":      "fd138dd3f75227cd95a1478773a0311416ca276c304ab483c64c85bce6d9bfcf",
	"health/tiny/inline":         "091c3b94bb624d59f3109132c5be3110d3b5e61b3be252a874c339fc1cd3801d",
	"health/tiny/NoInline":       "2ecd12d769380075ec88f4bc8d720ccfb0c19c22803e69e111e4861ed7465037",
	"perimeter/default/inline":   "5391bbc7e466cac1fa34949b0b84a030525384ac3b0f92c9ebfe7f46d048e5c7",
	"perimeter/default/NoInline": "856b569d1eba0f79821ef6876c447303b2554bdfaa717654312177f9c9ab71aa",
	"perimeter/quick/inline":     "0c6a7b01190426d369d4958b67fb3a937cccb990eaecd58891d4c146699601f0",
	"perimeter/quick/NoInline":   "c080e8f59f03d50f3f4de124e0707ae8f7684778d0669c549d9afe269ad9be2a",
	"perimeter/tiny/inline":      "1811f2137238377e2aa5e9231f8c6dd6a4e45c68e26578a8c10402190d8a22be",
	"perimeter/tiny/NoInline":    "acc30ac3a3580310cd003195cc5d8370eea986591ad5728b1d41e0883bfc742b",
	"voronoi/default/inline":     "f3964a296bfb3e5a1486daa6320ff26f83828f4767ed6af18b8916cda2d8e9d4",
	"voronoi/default/NoInline":   "bcecd0c7179d9cfd8862b72fd75be7fd4f213036eee6a5e430fc5ca00d5f5e62",
	"voronoi/quick/inline":       "0d6cd902743506668b62e24e912c2ed65da9d0cff9c69e38aaf66248fb77bc06",
	"voronoi/quick/NoInline":     "3076ca95f94fe16b1e465a5f7635f9c7a186c94bff6a5771c7e35acc5d55fd65",
	"voronoi/tiny/inline":        "b576dba96ac3af5faeb1cdc6bb2c2ed8a1c70b6b4bf1742259297aefbdbb85ef",
	"voronoi/tiny/NoInline":      "e83771f4c8eecd09ce961ac7f6058ed55cb11ec0c3d8237eaa1b022f1f540299",
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
