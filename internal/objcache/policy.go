package objcache

import (
	"chrome/internal/chrome"
	"chrome/internal/mem"
)

// ChromeOverride is the agent configuration accepted by Config.Chrome; an
// alias so callers tune the real chrome.Config without objcache wrapping
// every knob.
type ChromeOverride = chrome.Config

// agentSets/agentWays is the Q-geometry of each shard's agent: the set
// count folds the key-hash space onto the sampler and must be a power of
// two (Agent.Step masks with sets-1); the way count only scales the
// sampler's EQ depth.
const (
	agentSets = 2048
	agentWays = 16
)

// Request is one keyed operation as the policy sees it: the seeded key
// hash (the object's identity in the agent's address space) and its
// accounted size.
type Request struct {
	KeyHash uint64
	Size    int64
}

// Policy decides admission and placement for one shard. Implementations
// are owned exclusively by their shard and are always called with the
// shard lock held; they need no synchronization of their own.
type Policy interface {
	// Admit decides a fill for a key not in the shard: file the object
	// under band (3 evicted first, 0 last), or bypass it entirely.
	Admit(r Request) (band uint8, admit bool)
	// Touch observes a re-reference of a resident object and returns the
	// band it should move to.
	Touch(r Request) uint8
	// Name identifies the policy in reports.
	Name() string
}

// newPolicy builds the shard's policy from the cache configuration.
func newPolicy(cfg Config, shard int) Policy {
	switch cfg.Policy {
	case "lru":
		return lruPolicy{}
	case "chrome":
		ccfg := chrome.DefaultConfig()
		// No obstruction monitor exists outside the simulator, so the
		// OB/NOB reward split would never fire; keep the state space
		// honest about it.
		ccfg.ConcurrencyAware = false
		// The paper samples 64/2048 sets because hardware pays silicon per
		// sampled set; a software service pays only a Q-table update, so
		// train on a quarter of the stream and learn 8× faster.
		ccfg.SampledSets = agentSets / 4
		// The page-number feature is per-key noise under the key-hash
		// address mapping (every object is its own page); the PC signature
		// (size class × hit/miss) is the signal that generalizes.
		ccfg.StateFeatures = []chrome.FeatureKind{chrome.FeatPCSignature}
		if cfg.Chrome != nil {
			ccfg = *cfg.Chrome
		}
		// Decorrelate the per-shard exploration streams while keeping the
		// whole cache a pure function of (Config, request stream).
		ccfg.Seed = mem.Mix64(cfg.Seed ^ (uint64(shard)+1)*0x9E3779B97F4A7C15)
		return &agentPolicy{
			agent: chrome.New(ccfg, agentSets, agentWays),
			core:  mem.CoreIDOf(shard & 63),
		}
	default:
		panic("objcache: unknown policy " + cfg.Policy)
	}
}

// lruPolicy is the baseline: admit everything into band 0, keep it there.
// With a single live band, eviction order degenerates to exact LRU.
type lruPolicy struct{}

func (lruPolicy) Admit(Request) (uint8, bool) { return 0, true }
func (lruPolicy) Touch(Request) uint8         { return 0 }
func (lruPolicy) Name() string                { return "lru" }

// agentPolicy drives one shard's requests through the lifted CHROME
// pipeline (chrome.Agent.Step). The mapping from keyed requests to the
// agent's feature space:
//
//   - Addr: the seeded key hash shifted to a block address, so HashAddr
//     re-reference matching in the EQ keys on object identity and the set
//     index (low hash bits) spreads keys across the sampler;
//   - PC: a mixed size-class bucket — the "instruction" issuing the
//     request is "fetch an object of roughly this size", which hands the
//     agent the scan signal (bulk scans fetch one size class);
//   - Core: the shard identity, folded to the agent's core domain.
type agentPolicy struct {
	agent *chrome.Agent
	core  mem.CoreID
}

func (p *agentPolicy) access(r Request) mem.Access {
	return mem.Access{
		PC:   mem.PCOf(mem.Mix64(uint64(sizeClass(r.Size)))),
		Addr: mem.AddrOf(r.KeyHash << mem.BlockShift),
		Type: mem.Load,
		Core: p.core,
	}
}

func (p *agentPolicy) Admit(r Request) (uint8, bool) {
	d := p.agent.Step(p.access(r), false)
	if d.Bypass {
		return 0, false
	}
	return d.EPV, true
}

func (p *agentPolicy) Touch(r Request) uint8 {
	return p.agent.Step(p.access(r), true).EPV
}

func (p *agentPolicy) Name() string { return "chrome" }
