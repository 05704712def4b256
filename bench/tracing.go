package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"chrome/internal/cache"
	"chrome/internal/mem"
	"chrome/internal/prefetch"
	"chrome/internal/trace"
)

// span is one recorded interval: a repetition, or a layer's aggregate
// inside a traced repetition (calls, sampled calls and estimated self
// time, with no start or end of its own).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Name    string  `json:"name"`
	StartNs int64   `json:"start_ns,omitempty"`
	EndNs   int64   `json:"end_ns,omitempty"`
	Calls   uint64  `json:"calls,omitempty"`
	Sampled uint64  `json:"sampled,omitempty"`
	SelfNs  float64 `json:"self_ns,omitempty"`
}

// tracer keeps the run's spans in memory until exit and holds the timer
// calibration that corrects sampled call times.
type tracer struct {
	origin time.Time
	spans  []span
	// timerNs is what an empty time.Now/time.Since span reads: the cost the
	// timer itself adds to every sampled span.
	timerNs float64
	// pairNs is the whole cost of one time.Now/time.Since pair, the host
	// time a sampled call adds to the traced run.
	pairNs float64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// span records a top-level interval that started at start and ends now.
func (t *tracer) span(name string, start time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Name: name,
		StartNs: start.Sub(t.origin).Nanoseconds(),
		EndNs:   time.Since(t.origin).Nanoseconds(),
	})
	return id
}

// layer records a layer's aggregate under a traced repetition's span.
func (t *tracer) layer(parent int, name string, p *probe) {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Calls: p.calls, Sampled: p.sampled, SelfNs: p.selfSeconds(t.timerNs) * 1e9,
	})
}

// calibrate measures the timer: what an empty span reads and what a whole
// pair costs, each the median over batches of batch means, which keeps the
// fractional digits while a preempted batch cannot move the result.
func (t *tracer) calibrate() {
	const batches, n = 101, 1000
	var reads, pairs []float64
	for b := 0; b < batches; b++ {
		var sum time.Duration
		start := time.Now()
		for i := 0; i < n; i++ {
			s := time.Now()
			sum += time.Since(s)
		}
		pairs = append(pairs, float64(time.Since(start))/n)
		reads = append(reads, float64(sum)/n)
	}
	t.timerNs, t.pairNs = median(reads), median(pairs)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// probe counts every call into a layer and times one call in
// sampleEvery, keeping the traced run close to the untraced one.
type probe struct {
	calls, sampled uint64
	ns             int64
}

const sampleEvery = 16

// tick counts a call and reports whether to time it.
func (p *probe) tick() bool {
	p.calls++
	return p.calls%sampleEvery == 0
}

func (p *probe) add(d time.Duration) {
	p.sampled++
	p.ns += int64(d)
}

// perCall estimates one call's host time: the mean sampled span less the
// calibrated timer cost, never below zero.
func (p *probe) perCall(timerNs float64) float64 {
	if p.sampled == 0 {
		return 0
	}
	return max(0, float64(p.ns)/float64(p.sampled)-timerNs)
}

// selfSeconds estimates the layer's total host time.
func (p *probe) selfSeconds(timerNs float64) float64 {
	return float64(p.calls) * p.perCall(timerNs) / 1e9
}

// genShim times a core's trace generator.
type genShim struct {
	inner trace.Generator
	p     *probe
}

func (g *genShim) Next() trace.Record {
	if !g.p.tick() {
		return g.inner.Next()
	}
	start := time.Now()
	r := g.inner.Next()
	g.p.add(time.Since(start))
	return r
}

func (g *genShim) Reset()       { g.inner.Reset() }
func (g *genShim) Name() string { return g.inner.Name() }

// pfShim times a prefetcher's training call.
type pfShim struct {
	inner prefetch.Prefetcher
	p     *probe
}

func (f *pfShim) Name() string { return f.inner.Name() }

func (f *pfShim) Train(acc mem.Access, hit bool, buf []mem.Addr) []mem.Addr {
	if !f.p.tick() {
		return f.inner.Train(acc, hit, buf)
	}
	start := time.Now()
	out := f.inner.Train(acc, hit, buf)
	f.p.add(time.Since(start))
	return out
}

// The four cache.Policy hooks, indexing shims.hooks.
const (
	hookVictim = iota
	hookOnHit
	hookOnFill
	hookOnEvict
	numHooks
)

var hookNames = [numHooks]string{"victim", "onhit", "onfill", "onevict"}

// shims holds one traced repetition's probes, the real policies behind its
// policy shims, and the first maxCapture policy-visible LLC accesses
// (misses reaching Victim and hits reaching OnHit) for the replay probe.
type shims struct {
	trace, prefetch probe
	hooks           [numHooks]probe
	policies        []cache.Policy
	capture         []mem.Access
}

const maxCapture = 1 << 20

func (s *shims) record(acc mem.Access) {
	if len(s.capture) < maxCapture {
		s.capture = append(s.capture, acc)
	}
}

// policyShim times an LLC policy's hooks.
type policyShim struct {
	inner cache.Policy
	s     *shims
}

func (ps *policyShim) Name() string { return ps.inner.Name() }

func (ps *policyShim) Victim(set mem.SetIdx, blocks []cache.Block, acc mem.Access) (int, bool) {
	ps.s.record(acc)
	p := &ps.s.hooks[hookVictim]
	if !p.tick() {
		return ps.inner.Victim(set, blocks, acc)
	}
	start := time.Now()
	way, bypass := ps.inner.Victim(set, blocks, acc)
	p.add(time.Since(start))
	return way, bypass
}

func (ps *policyShim) OnHit(set mem.SetIdx, way int, blocks []cache.Block, acc mem.Access) {
	ps.s.record(acc)
	p := &ps.s.hooks[hookOnHit]
	if !p.tick() {
		ps.inner.OnHit(set, way, blocks, acc)
		return
	}
	start := time.Now()
	ps.inner.OnHit(set, way, blocks, acc)
	p.add(time.Since(start))
}

func (ps *policyShim) OnFill(set mem.SetIdx, way int, blocks []cache.Block, acc mem.Access) {
	p := &ps.s.hooks[hookOnFill]
	if !p.tick() {
		ps.inner.OnFill(set, way, blocks, acc)
		return
	}
	start := time.Now()
	ps.inner.OnFill(set, way, blocks, acc)
	p.add(time.Since(start))
}

func (ps *policyShim) OnEvict(set mem.SetIdx, way int, blocks []cache.Block) {
	p := &ps.s.hooks[hookOnEvict]
	if !p.tick() {
		ps.inner.OnEvict(set, way, blocks)
		return
	}
	start := time.Now()
	ps.inner.OnEvict(set, way, blocks)
	p.add(time.Since(start))
}
