// Package par holds deprecated names kept only so existing callers still
// compile.
package par

// Deprecated: ignored; every compile is sequential.
type Pool struct{}

// Deprecated: ignored.
func New(int) *Pool { return &Pool{} }
