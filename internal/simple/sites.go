package simple

import "strconv"

// AssignSites gives every compound statement a stable site ID used as the
// profiling key (see internal/profile): per function, compounds are
// numbered 1..n in WalkStmts order (parents before children, children in
// execution order). Lowering is deterministic, so the instrumented
// (unoptimized) compile and the profile-guided optimizing compile of the
// same restructured AST assign identical IDs — which is what lets a
// profile collected on the former steer the latter. Basic statements need
// no extra ID: their lowering-assigned Label already is one.
//
// Par sequences get no site: their arms run concurrently and the placement
// analysis applies no frequency scaling to them.
func AssignSites(p *Program) {
	for _, f := range p.Funcs {
		n := 0
		WalkStmts(f.Body, func(s Stmt) {
			switch st := s.(type) {
			case *If:
				n++
				st.Site = n
			case *Switch:
				n++
				st.Site = n
			case *While:
				n++
				st.Site = n
			case *Do:
				n++
				st.Site = n
			case *Forall:
				n++
				st.Site = n
			}
		})
	}
}

// SiteOf returns a compound statement's site ID (0 when unassigned or the
// statement kind carries none).
func SiteOf(s Stmt) int {
	switch st := s.(type) {
	case *If:
		return st.Site
	case *Switch:
		return st.Site
	case *While:
		return st.Site
	case *Do:
		return st.Site
	case *Forall:
		return st.Site
	}
	return 0
}

// CompoundSiteKey is the profile key of a compound statement site; "" when
// the site is unassigned.
func CompoundSiteKey(fn string, site int) string {
	if site == 0 {
		return ""
	}
	return fn + ":C" + strconv.Itoa(site)
}

// BasicSiteKey is the profile key of a basic statement (keyed by its Si
// label).
func BasicSiteKey(fn string, label int) string {
	return fn + ":S" + strconv.Itoa(label)
}
