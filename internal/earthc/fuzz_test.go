package earthc

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse asserts the parser's total-function contract: any byte string
// either parses or returns an error — no panics, no hangs. A file that parses
// then goes through the restructuring passes (InlineFunctions, DesugarLoops,
// EliminateGotos), which may reject it but must not panic either. Seeds come
// from the malformed corpus plus the repo's example programs so the fuzzer
// starts from both sides of the grammar.
func FuzzParse(f *testing.F) {
	for _, dir := range []string{
		filepath.Join("testdata", "malformed"),
		filepath.Join("..", "..", "testdata"),
	} {
		files, _ := filepath.Glob(filepath.Join(dir, "*.ec"))
		for _, path := range files {
			if src, err := os.ReadFile(path); err == nil {
				f.Add(string(src))
			}
		}
	}
	f.Add("int main() { return 1 + 2; }")
	f.Add("struct s { int x; }; int main() { struct s *p; return p->x; }")
	f.Fuzz(func(t *testing.T, src string) {
		file, err := ParseFile("fuzz.ec", src)
		if err != nil {
			return
		}
		if file == nil {
			t.Fatal("nil file with nil error")
		}
		InlineFunctions(file, InlineOptions{})
		for _, fn := range file.Funcs {
			if DesugarLoops(fn) == nil {
				EliminateGotos(fn)
			}
		}
	})
}
