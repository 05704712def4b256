// Package workload defines the named workload profiles standing in for the
// paper's SPEC CPU2006, SPEC CPU2017, and GAP traces (Table VI), and builds
// the homogeneous and heterogeneous multi-programmed mixes of §VI. Every
// profile is a deterministic synthetic-trace recipe tuned to the
// qualitative memory behaviour of its namesake (DESIGN.md §1); all profiles
// are memory-intensive (LLC MPKI > 1 without prefetching, asserted by the
// package tests).
package workload

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"sync/atomic"

	"chrome/internal/mem"
	"chrome/internal/trace"
)

// Suite identifies a benchmark suite.
type Suite string

// The three suites of Table VI.
const (
	SPEC06 Suite = "SPEC06"
	SPEC17 Suite = "SPEC17"
	GAP    Suite = "GAP"
)

// Profile is a named synthetic workload.
type Profile struct {
	// Name is the workload's identifier (e.g. "mcf", "pr-tw").
	Name string
	// Suite is the benchmark suite the profile models.
	Suite Suite
	build func(region, seed uint64) trace.Generator
}

// coreSpacing separates per-core address spaces (64 GiB apart).
const coreSpacing = mem.Addr(1) << 36

// New instantiates the profile's live trace generator for the given core.
// Cores running the same profile execute the same access pattern over
// disjoint physical regions (multi-programmed, not shared-memory). New is
// what a recording is made from; simulations replay recordings
// (HomogeneousMix, Mix.Generators).
func (p Profile) New(core int) trace.Generator {
	g := p.build(profileRegion(p.Name), p.seed())
	return trace.Rebase(g, coreSpacing*mem.AddrOf(uint64(core)))
}

func (p Profile) seed() uint64 { return mem.Mix64(hashName(p.Name)) }

func hashName(name string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// profileRegion assigns each profile a distinct base address region.
func profileRegion(name string) uint64 { return hashName(name) % 64 }

var (
	profiles     []Profile
	profileIndex = map[string]int{}
	// frozen latches once any lookup runs. The registry is write-once at
	// init time: after the first read it must never change, because the
	// parallel experiments runner reads it from many goroutines without
	// locks (this latch turns a late register into a loud panic instead of
	// a data race).
	frozen atomic.Bool
)

func freeze() {
	frozen.Store(true)
}

func register(name string, suite Suite, build func(region, seed uint64) trace.Generator) {
	if frozen.Load() {
		panic("workload: register(" + name + ") after the registry was read; profiles must be registered from init")
	}
	if _, dup := profileIndex[name]; dup {
		panic("workload: duplicate profile " + name)
	}
	profileIndex[name] = len(profiles)
	profiles = append(profiles, Profile{Name: name, Suite: suite, build: build})
}

// All returns every registered profile, in registration order. Reading the
// registry freezes it: any later register panics.
func All() []Profile {
	freeze()
	out := make([]Profile, len(profiles))
	copy(out, profiles)
	return out
}

// BySuite returns the profiles of one suite.
func BySuite(s Suite) []Profile {
	freeze()
	var out []Profile
	for _, p := range profiles {
		if p.Suite == s {
			out = append(out, p)
		}
	}
	return out
}

// SPEC returns the SPEC06+SPEC17 profiles (the pool used for mixes and
// hyper-parameter tuning; GAP is held out as "unseen", §VII-D).
func SPEC() []Profile {
	return append(BySuite(SPEC06), BySuite(SPEC17)...)
}

// ByName returns the named profile.
func ByName(name string) (Profile, error) {
	freeze()
	i, ok := profileIndex[name]
	if !ok {
		return Profile{}, fmt.Errorf("workload: unknown profile %q", name)
	}
	return profiles[i], nil
}

// Names returns the sorted names of all profiles.
func Names() []string {
	freeze()
	out := make([]string, 0, len(profiles))
	for _, p := range profiles {
		out = append(out, p.Name)
	}
	sort.Strings(out)
	return out
}

// Mix is a named selection of profiles, one per core.
type Mix struct {
	// Name identifies the mix (e.g. "hetero-4c-017").
	Name string
	// Profiles lists one profile per core.
	Profiles []Profile
}

// HeterogeneousMixes reproduces the paper's random heterogeneous mix
// construction (§VI: 150 4-core, 25 8-core, 25 16-core mixes drawn from the
// memory-intensive SPEC traces), deterministically from the seed.
func HeterogeneousMixes(cores, count int, seed uint64) []Mix {
	pool := SPEC()
	r := rand.New(rand.NewPCG(seed, mem.Mix64(seed^0xBEEF)))
	mixes := make([]Mix, count)
	for i := range mixes {
		ps := make([]Profile, cores)
		for c := range ps {
			ps[c] = pool[r.IntN(len(pool))]
		}
		mixes[i] = Mix{Name: fmt.Sprintf("hetero-%dc-%03d", cores, i), Profiles: ps}
	}
	return mixes
}

// mixGen shortens the composed-generator declarations below.
func mixGen(name string, seed uint64, subs []trace.Generator, weights []float64) trace.Generator {
	return trace.NewMixed(name, seed, subs, weights)
}

func init() {
	// --- SPEC CPU2006 (Table VI row 1) -----------------------------------
	register("gcc", SPEC06, func(rg, seed uint64) trace.Generator {
		return trace.NewWorkingSet(trace.WorkingSetConfig{
			Name: "gcc", Region: rg, Size: 8 << 20, HotSize: 512 << 10,
			HotFrac: 0.55, Gap: 3, Writes: 0.25, PCs: 24, Seed: seed,
		})
	})
	register("bwaves", SPEC06, func(rg, _ uint64) trace.Generator {
		return trace.NewStride(trace.StrideConfig{
			Name: "bwaves", Region: rg, Streams: 6,
			Strides: []uint64{64, 64, 128, 192, 64, 256}, Size: 12 << 20,
			Gap: 2, Writes: 1,
		})
	})
	register("mcf", SPEC06, func(rg, seed uint64) trace.Generator {
		return mixGen("mcf", seed, []trace.Generator{
			trace.NewPointerChase(trace.PointerChaseConfig{
				Name: "mcf-chase", Region: rg, Size: 48 << 20, Gap: 2, AuxFrac: 0.5, Seed: seed,
			}),
			trace.NewWorkingSet(trace.WorkingSetConfig{
				Name: "mcf-ws", Region: rg + 64, Size: 4 << 20, HotFrac: 0.4, Gap: 2, Writes: 0.3, PCs: 8, Seed: seed,
			}),
		}, []float64{0.7, 0.3})
	})
	register("milc", SPEC06, func(rg, seed uint64) trace.Generator {
		return trace.NewStream(trace.StreamConfig{
			Name: "milc", Region: rg, Size: 32 << 20, Stride: 64, Gap: 2, Writes: 0.3, Seed: seed,
		})
	})
	register("zeusmp", SPEC06, func(rg, _ uint64) trace.Generator {
		return trace.NewStride(trace.StrideConfig{
			Name: "zeusmp", Region: rg, Streams: 4,
			Strides: []uint64{64, 128, 128, 64}, Size: 10 << 20, Gap: 3, Writes: 1,
		})
	})
	register("gromacs", SPEC06, func(rg, seed uint64) trace.Generator {
		return trace.NewWorkingSet(trace.WorkingSetConfig{
			Name: "gromacs", Region: rg, Size: 3 << 20, HotSize: 256 << 10,
			HotFrac: 0.7, Gap: 4, Writes: 0.2, PCs: 12, Seed: seed,
		})
	})
	register("leslie3d", SPEC06, func(rg, _ uint64) trace.Generator {
		return trace.NewStride(trace.StrideConfig{
			Name: "leslie3d", Region: rg, Streams: 5,
			Strides: []uint64{64, 192, 64, 320, 128}, Size: 16 << 20, Gap: 2, Writes: 1,
		})
	})
	register("soplex", SPEC06, func(rg, seed uint64) trace.Generator {
		return mixGen("soplex", seed, []trace.Generator{
			trace.NewWorkingSet(trace.WorkingSetConfig{
				Name: "soplex-ws", Region: rg, Size: 24 << 20, HotSize: 1 << 20,
				HotFrac: 0.35, Gap: 2, Writes: 0.2, PCs: 16, Seed: seed,
			}),
			trace.NewStride(trace.StrideConfig{
				Name: "soplex-str", Region: rg + 64, Streams: 3, Size: 6 << 20, Gap: 2,
			}),
		}, []float64{0.6, 0.4})
	})
	register("hmmer", SPEC06, func(rg, seed uint64) trace.Generator {
		return trace.NewWorkingSet(trace.WorkingSetConfig{
			Name: "hmmer", Region: rg, Size: 24 << 20, HotSize: 128 << 10,
			HotFrac: 0.75, Gap: 5, Writes: 0.35, PCs: 6, Seed: seed,
		})
	})
	register("GemsFDTD", SPEC06, func(rg, _ uint64) trace.Generator {
		return trace.NewStride(trace.StrideConfig{
			Name: "GemsFDTD", Region: rg, Streams: 8,
			Strides: []uint64{64, 64, 128, 448, 64, 128, 64, 896}, Size: 20 << 20,
			Gap: 2, Writes: 2,
		})
	})
	register("libquantum", SPEC06, func(rg, seed uint64) trace.Generator {
		return trace.NewStream(trace.StreamConfig{
			Name: "libquantum", Region: rg, Size: 64 << 20, Stride: 32, Gap: 1, Writes: 0.25, Seed: seed,
		})
	})
	register("astar", SPEC06, func(rg, seed uint64) trace.Generator {
		return trace.NewPointerChase(trace.PointerChaseConfig{
			Name: "astar", Region: rg, Size: 16 << 20, Gap: 3, AuxFrac: 0.4, Seed: seed,
		})
	})
	register("wrf", SPEC06, func(rg, seed uint64) trace.Generator {
		return trace.NewPhased("wrf", 40000,
			trace.NewStream(trace.StreamConfig{
				Name: "wrf-stream", Region: rg, Size: 24 << 20, Gap: 2, Writes: 0.3, Seed: seed,
			}),
			trace.NewWorkingSet(trace.WorkingSetConfig{
				Name: "wrf-ws", Region: rg + 64, Size: 6 << 20, HotFrac: 0.5, Gap: 3, Writes: 0.2, PCs: 10, Seed: seed,
			}),
		)
	})
	register("xalancbmk", SPEC06, func(rg, seed uint64) trace.Generator {
		return trace.NewWorkingSet(trace.WorkingSetConfig{
			Name: "xalancbmk", Region: rg, Size: 12 << 20, HotSize: 768 << 10,
			HotFrac: 0.5, Gap: 3, Writes: 0.15, PCs: 40, Seed: seed,
		})
	})

	// --- SPEC CPU2017 (Table VI row 2) -----------------------------------
	register("gcc17", SPEC17, func(rg, seed uint64) trace.Generator {
		return trace.NewWorkingSet(trace.WorkingSetConfig{
			Name: "gcc17", Region: rg, Size: 10 << 20, HotSize: 640 << 10,
			HotFrac: 0.5, Gap: 3, Writes: 0.25, PCs: 32, Seed: seed,
		})
	})
	register("bwaves17", SPEC17, func(rg, _ uint64) trace.Generator {
		return trace.NewStride(trace.StrideConfig{
			Name: "bwaves17", Region: rg, Streams: 7,
			Strides: []uint64{64, 128, 64, 64, 192, 64, 128}, Size: 14 << 20,
			Gap: 2, Writes: 2,
		})
	})
	register("mcf17", SPEC17, func(rg, seed uint64) trace.Generator {
		return mixGen("mcf17", seed, []trace.Generator{
			trace.NewPointerChase(trace.PointerChaseConfig{
				Name: "mcf17-chase", Region: rg, Size: 40 << 20, Gap: 2, AuxFrac: 0.6, Seed: seed,
			}),
			trace.NewStream(trace.StreamConfig{
				Name: "mcf17-stream", Region: rg + 64, Size: 8 << 20, Gap: 2, Seed: seed,
			}),
		}, []float64{0.65, 0.35})
	})
	register("cactusBSSN", SPEC17, func(rg, _ uint64) trace.Generator {
		return trace.NewStride(trace.StrideConfig{
			Name: "cactusBSSN", Region: rg, Streams: 9,
			Strides: []uint64{64, 64, 128, 64, 256, 64, 128, 512, 64}, Size: 18 << 20,
			Gap: 2, Writes: 3,
		})
	})
	register("lbm", SPEC17, func(rg, seed uint64) trace.Generator {
		return trace.NewStream(trace.StreamConfig{
			Name: "lbm", Region: rg, Size: 48 << 20, Stride: 40, Gap: 1, Writes: 0.5, Seed: seed,
		})
	})
	register("omnetpp", SPEC17, func(rg, seed uint64) trace.Generator {
		return mixGen("omnetpp", seed, []trace.Generator{
			trace.NewPointerChase(trace.PointerChaseConfig{
				Name: "omnetpp-heap", Region: rg, Size: 20 << 20, Gap: 3, AuxFrac: 0.7, Seed: seed,
			}),
			trace.NewWorkingSet(trace.WorkingSetConfig{
				Name: "omnetpp-ws", Region: rg + 64, Size: 2 << 20, HotFrac: 0.6, Gap: 3, Writes: 0.3, PCs: 20, Seed: seed,
			}),
		}, []float64{0.55, 0.45})
	})
	register("wrf17", SPEC17, func(rg, seed uint64) trace.Generator {
		return trace.NewPhased("wrf17", 60000,
			trace.NewStride(trace.StrideConfig{
				Name: "wrf17-str", Region: rg, Streams: 4, Size: 12 << 20, Gap: 2, Writes: 1,
			}),
			trace.NewWorkingSet(trace.WorkingSetConfig{
				Name: "wrf17-ws", Region: rg + 64, Size: 5 << 20, HotFrac: 0.45, Gap: 3, Writes: 0.2, PCs: 14, Seed: seed,
			}),
		)
	})
	register("xalancbmk17", SPEC17, func(rg, seed uint64) trace.Generator {
		return trace.NewWorkingSet(trace.WorkingSetConfig{
			Name: "xalancbmk17", Region: rg, Size: 14 << 20, HotSize: 1 << 20,
			HotFrac: 0.45, Gap: 3, Writes: 0.15, PCs: 48, Seed: seed,
		})
	})
	register("cam4", SPEC17, func(rg, _ uint64) trace.Generator {
		return trace.NewStride(trace.StrideConfig{
			Name: "cam4", Region: rg, Streams: 6,
			Strides: []uint64{64, 128, 192, 64, 128, 64}, Size: 9 << 20, Gap: 3, Writes: 2,
		})
	})
	register("pop2", SPEC17, func(rg, seed uint64) trace.Generator {
		return trace.NewPhased("pop2", 50000,
			trace.NewStream(trace.StreamConfig{
				Name: "pop2-stream", Region: rg, Size: 16 << 20, Gap: 2, Writes: 0.3, Seed: seed,
			}),
			trace.NewStride(trace.StrideConfig{
				Name: "pop2-str", Region: rg + 64, Streams: 3, Size: 6 << 20, Gap: 3,
			}),
		)
	})
	register("fotonik3d", SPEC17, func(rg, seed uint64) trace.Generator {
		return trace.NewStream(trace.StreamConfig{
			Name: "fotonik3d", Region: rg, Size: 40 << 20, Stride: 48, Gap: 2, Writes: 0.35, Seed: seed,
		})
	})
	register("roms", SPEC17, func(rg, _ uint64) trace.Generator {
		return trace.NewStride(trace.StrideConfig{
			Name: "roms", Region: rg, Streams: 5,
			Strides: []uint64{64, 64, 128, 64, 192}, Size: 22 << 20, Gap: 2, Writes: 1,
		})
	})
	register("xz", SPEC17, func(rg, seed uint64) trace.Generator {
		return trace.NewWorkingSet(trace.WorkingSetConfig{
			Name: "xz", Region: rg, Size: 16 << 20, HotSize: 2 << 20,
			HotFrac: 0.4, Gap: 2, Writes: 0.3, PCs: 10, Seed: seed,
		})
	})

	// --- GAP (Table VI row 3; §VII-D unseen workloads) --------------------
	kernels := []trace.GraphKernel{
		trace.KernelBC, trace.KernelBFS, trace.KernelCC, trace.KernelPR, trace.KernelSSSP,
	}
	datasets := []struct {
		tag  string
		kind trace.GraphKind
	}{
		{"or", trace.GraphPowerLaw},
		{"tw", trace.GraphPowerLaw},
		{"ur", trace.GraphUniform},
	}
	for _, k := range kernels {
		for _, d := range datasets {
			k, d := k, d
			name := fmt.Sprintf("%s-%s", k, d.tag)
			register(name, GAP, func(rg, seed uint64) trace.Generator {
				return trace.NewGraph(trace.GraphConfig{
					Name: name, Kernel: k, Kind: d.kind, Region: rg,
					Vertices: 1 << 17, AvgDegree: 12, Seed: seed,
				})
			})
		}
	}
}
