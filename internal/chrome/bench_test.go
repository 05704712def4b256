package chrome_test

import (
	"sync"
	"testing"

	"chrome/internal/cache"
	"chrome/internal/chrome"
	"chrome/internal/experiments"
	"chrome/internal/mem"
	"chrome/internal/sim"
	"chrome/internal/workload"
)

// llcEvent is one request that reached the LLC policy: a miss (way < 0)
// went to Victim, a hit to OnHit.
type llcEvent struct {
	set mem.SetIdx
	way int
	acc mem.Access
}

// llcRecorder is a cache.Policy wrapper that records every request
// reaching its scheme's Victim and OnHit.
type llcRecorder struct {
	cache.Policy
	events []llcEvent
}

func (r *llcRecorder) Victim(set mem.SetIdx, blocks []cache.Block, acc mem.Access) (int, bool) {
	r.events = append(r.events, llcEvent{set, -1, acc})
	return r.Policy.Victim(set, blocks, acc)
}

func (r *llcRecorder) OnHit(set mem.SetIdx, way int, blocks []cache.Block, acc mem.Access) {
	r.events = append(r.events, llcEvent{set, way, acc})
	r.Policy.OnHit(set, way, blocks, acc)
}

// recordedLLCStream runs the first heterogeneous 4-core mix for 50,000
// instructions per core under the experiments' CHROME on
// sim.ScaledConfig(4) with their default prefetchers, and returns every
// request its LLC policy saw and the LLC's sets and ways.
var recordedLLCStream = sync.OnceValues(func() ([]llcEvent, [2]int) {
	const instrs = 50_000
	cfg := sim.ScaledConfig(4)
	pf := experiments.PFDefault()
	cfg.L1Prefetcher, cfg.L2Prefetcher = pf.L1, pf.L2
	scheme := experiments.CHROMEScheme(experiments.ChromeConfig())
	var rec *llcRecorder
	var geometry [2]int
	mix := workload.HeterogeneousMixes(4, 1, 1)[0]
	sys := sim.New(cfg, mix.Generators(instrs), func(sets, ways, cores int, obstructed func(mem.CoreID) bool) cache.Policy {
		rec = &llcRecorder{Policy: scheme.Factory(sets, ways, cores, obstructed)}
		geometry = [2]int{sets, ways}
		return rec
	})
	sys.Run(0, instrs)
	return rec.events, geometry
})

// BenchmarkAgentStep replays a recorded LLC request stream through a fresh
// CHROME agent's Victim and OnHit, one call per op; each lap of the stream
// starts a new agent, so every lap does the same work. The blocks passed
// to Victim are empty: victimByEPV's scan costs the same for any contents.
// No obstruction feedback is wired, so every not-re-referenced reward is
// the NOB one. The loop counts b.N rather than calling b.Loop: Go 1.24's
// b.Loop measures its time budget from the last StartTimer, so a loop that
// restarts the timer at every lap never ends.
func BenchmarkAgentStep(b *testing.B) {
	events, geometry := recordedLLCStream()
	blocks := make([]cache.Block, geometry[1])
	var a *chrome.Agent
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := events[i%len(events)]
		if i%len(events) == 0 {
			b.StopTimer()
			a = chrome.New(experiments.ChromeConfig(), geometry[0], geometry[1])
			b.StartTimer()
		}
		if e.way < 0 {
			a.Victim(e.set, blocks, e.acc)
		} else {
			a.OnHit(e.set, e.way, blocks, e.acc)
		}
	}
}
