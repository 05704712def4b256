package cache

import "chrome/internal/mem"

// Level is the method set of a cache level. *Cache is its only
// implementation; the simulator uses *Cache directly, and Level is kept
// because the repository benchmark (bench/mix.go) names it.
type Level interface {
	// Access performs one request against the level.
	Access(acc mem.Access) Result
	// Probe reports presence without side effects.
	Probe(a mem.Addr) bool
	// Config returns the level's geometry.
	Config() Config
	// Policy returns the installed policy.
	Policy() Policy
	// Stats returns a pointer to the level's counters.
	Stats() *Stats
	// ResetStats zeroes the counters and starts a new stats epoch.
	ResetStats()
	// SetEvictionTracker installs an optional unused-eviction tracker.
	SetEvictionTracker(*ReuseTracker)
	// SetBypassTracker installs an optional bypass-efficiency tracker.
	SetBypassTracker(*ReuseTracker)
	// Invalidate removes the block holding addr, if present.
	Invalidate(a mem.Addr) (present, dirty bool)
}

var _ Level = (*Cache)(nil)
