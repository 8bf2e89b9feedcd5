// Package contenthash is the one canonical content-hashing helper shared
// by every subsystem that keys artifacts to source text: the profile
// subsystem binds profiles to a source revision, the compile cache derives
// unit keys, and earthd derives a job's idempotency key from its request.
// Centralizing the rendering ("sha256:<hex>") guarantees they can never
// drift — a profile collected under one hash scheme is always comparable to
// a cache key computed elsewhere.
package contenthash

import (
	"crypto/sha256"
	"fmt"
)

// Source returns the canonical content key of a source text (or any other
// canonical byte rendering): "sha256:" followed by the lowercase hex SHA-256
// of the bytes.
func Source(src string) string {
	return fmt.Sprintf("sha256:%x", sha256.Sum256([]byte(src)))
}

// Parts hashes a sequence of strings with unambiguous framing: each part is
// preceded by its length, so ("ab","c") and ("a","bc") produce different
// keys. Use it wherever a key is derived from several components (options
// fingerprint + source, ...).
func Parts(parts ...string) string {
	h := sha256.New()
	var lenbuf [8]byte
	for _, p := range parts {
		n := len(p)
		for i := 0; i < 8; i++ {
			lenbuf[i] = byte(n >> (8 * i))
		}
		h.Write(lenbuf[:])
		h.Write([]byte(p))
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil))
}
