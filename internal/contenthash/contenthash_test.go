package contenthash

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// TestSource: the key is "sha256:" + lowercase hex of the bytes, and the
// same text always yields the same key.
func TestSource(t *testing.T) {
	const src = "int main() { return 0; }"
	got := Source(src)
	if want := fmt.Sprintf("sha256:%x", sha256.Sum256([]byte(src))); got != want {
		t.Errorf("Source = %s, want %s", got, want)
	}
	if again := Source(src); again != got {
		t.Errorf("Source not stable across calls: %s then %s", got, again)
	}
	if Source(src+" ") == got {
		t.Error("distinct texts share a key")
	}
	if empty := Source(""); !strings.HasPrefix(empty, "sha256:") || len(empty) != len("sha256:")+64 {
		t.Errorf("Source(\"\") = %q, want a full-width key", empty)
	}
}

// TestPartsFraming: part boundaries are part of the key, so moving a byte
// across a boundary — or adding an empty part — changes it.
func TestPartsFraming(t *testing.T) {
	distinct := map[string]string{}
	for name, parts := range map[string][]string{
		"ab|c":    {"ab", "c"},
		"a|bc":    {"a", "bc"},
		"abc":     {"abc"},
		"abc|":    {"abc", ""},
		"|abc":    {"", "abc"},
		"(none)":  {},
		"(empty)": {""},
		"||":      {"", ""},
	} {
		key := Parts(parts...)
		if key != Parts(parts...) {
			t.Errorf("Parts(%s) not stable across calls", name)
		}
		if other, dup := distinct[key]; dup {
			t.Errorf("Parts(%s) collides with Parts(%s): %s", name, other, key)
		}
		distinct[key] = name
	}
	if Parts("abc") == Source("abc") {
		t.Error("a one-part key must not equal the unframed Source key")
	}
}
