//go:build !simcheck

package sim

// SimcheckEnabled reports whether the simulation sanitizer is compiled in.
const SimcheckEnabled = false

// mshrCheck is empty in normal builds; build with -tags simcheck for MSHR
// occupancy and drain validation.
type mshrCheck struct{}

func (*mshrCheck) noteAcquire()        {}
func (*mshr) noteCommit()              {}
func (*mshrCheck) checkDrained(string) {}
func (s *System) checkEndOfRun()       {}
