//go:build !simcheck

package objcache

// SimcheckEnabled reports whether the store sanitizer is compiled in.
const SimcheckEnabled = false

// check is the sanitizer stub; see simcheck_on.go for the real invariant
// walk compiled in under -tags simcheck.
func (s *shard) check() {}
