//go:build simcheck

package cache

import (
	"errors"
	"strings"
	"testing"

	"chrome/internal/mem"
)

func expectPanic(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected simcheck panic containing %q, got none", substr)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic = %v, want message containing %q", r, substr)
		}
	}()
	fn()
}

// TestSimcheckDetectsDuplicateTag injects the corruption a buggy fill path
// would cause and checks the sanitizer catches it on the next access.
func TestSimcheckDetectsDuplicateTag(t *testing.T) {
	if !SimcheckEnabled {
		t.Fatal("SimcheckEnabled must be true under -tags simcheck")
	}
	c := simcheckCache(&lruPolicy{})
	acc := injectDuplicateTag(c)
	expectPanic(t, "duplicate valid tag", func() { c.Access(acc) })
}

// TestSimcheckDetectsStaleInvalidTag: an invalid way that holds a real tag
// would hit in the tag pass, which compares tags alone, so the sanitizer
// rejects it.
func TestSimcheckDetectsStaleInvalidTag(t *testing.T) {
	c := simcheckCache(&LRU{})
	acc := mem.Access{Addr: 0x1000, Type: mem.Load}
	c.set(c.SetIndex(acc.Addr))[1].Tag = 0
	expectPanic(t, "not the invalid tag", func() { c.Access(acc) })
}

// invariantPolicy fails its metadata check on demand.
type invariantPolicy struct {
	lruPolicy
	err error
}

func (p *invariantPolicy) CheckSetInvariants(mem.SetIdx) error { return p.err }

// TestSimcheckInvokesPolicyChecker checks that a policy implementing
// InvariantChecker is consulted after every access and its error panics
// with the policy diagnostics attached.
func TestSimcheckInvokesPolicyChecker(t *testing.T) {
	p := &invariantPolicy{}
	c := simcheckCache(p)
	c.Access(mem.Access{Addr: 0x40, Type: mem.Load}) // clean: no panic
	p.err = errors.New("rrpv out of range")
	expectPanic(t, "rrpv out of range", func() {
		c.Access(mem.Access{Addr: 0x80, Type: mem.Load})
	})
}

// TestSimcheckCleanRuns checks the sanitizer stays silent across ordinary
// hit, miss, eviction, and writeback traffic.
func TestSimcheckCleanRuns(t *testing.T) {
	c := simcheckCache(&lruPolicy{})
	for i := 0; i < 64; i++ {
		addr := mem.Addr(i*64 + (i%3)*4096)
		typ := mem.Load
		switch i % 4 {
		case 1:
			typ = mem.Store
		case 2:
			typ = mem.Prefetch
		case 3:
			typ = mem.Writeback
		}
		c.Access(mem.Access{Addr: addr, Type: typ, Cycle: mem.CycleOf(uint64(i))})
	}
}
