package threaded

import "repro/internal/simple"

// Coalesced returns, for each comm temp of f that takes another variable's
// frame slot, that variable's name.
func Coalesced(f *simple.Func) map[string]string {
	var c coalescer
	c.run(f)
	out := make(map[string]string, len(c.pairs))
	for _, p := range c.pairs {
		out[p[0].Name] = p[1].Name
	}
	return out
}
