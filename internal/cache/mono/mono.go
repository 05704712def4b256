// Package mono exists only because the repository benchmark's LLC replay
// probe (bench/mix.go) calls For. The simulator has one cache state
// machine, cache.Cache; For builds it.
package mono

import "chrome/internal/cache"

// For returns cache.New(cfg, p).
func For(cfg cache.Config, p cache.Policy) cache.Level { //chromevet:allow aliasshare -- ownership transfer: the cache owns the freshly built policy, as with cache.New
	return cache.New(cfg, p)
}
