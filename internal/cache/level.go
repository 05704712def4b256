package cache

import "chrome/internal/mem"

// Level is the method set of a cache level that the repository benchmark's
// LLC replay probe (bench/mix.go) calls. *Cache is its only implementation;
// the simulator uses *Cache directly.
type Level interface {
	// Access performs one request against the level.
	Access(acc mem.Access) Result
	// Stats returns a pointer to the level's counters.
	Stats() *Stats
}

var _ Level = (*Cache)(nil)
