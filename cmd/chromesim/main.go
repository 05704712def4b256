// Command chromesim runs a single simulation configuration — a workload
// mix, an LLC policy, a prefetcher pair, and a core count — and prints the
// measured statistics. Each core replays its workload's recording of
// warmup+measure instructions, and a CHROME or N-CHROME run also prints its
// agent's counters. It is the quickest way to poke at the simulator.
//
// Usage:
//
//	chromesim -workload mcf -policy CHROME -cores 4
//	chromesim -workload "mcf,gcc,milc,omnetpp" -policy CARE -cores 4
//	chromesim -list-workloads
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"chrome/internal/cache"
	"chrome/internal/chrome"
	"chrome/internal/experiments"
	"chrome/internal/mem"
	"chrome/internal/metrics"
	"chrome/internal/sim"
	"chrome/internal/trace"
	"chrome/internal/workload"
)

func main() {
	var (
		wl       = flag.String("workload", "mcf", "workload name, or comma-separated list (one per core)")
		policy   = flag.String("policy", "CHROME", "LLC policy, case-insensitive: "+strings.Join(schemeNames(), " | "))
		cores    = flag.Int("cores", 4, "number of cores, a power of two")
		pfName   = flag.String("prefetch", "default", "prefetchers: default | stride-streamer | ipcp | none")
		warmup   = flag.Uint64("warmup", 100_000, "warmup instructions per core")
		measure  = flag.Uint64("measure", 500_000, "measured instructions per core, at least 1")
		baseline = flag.Bool("baseline", true, "also run LRU and report weighted speedup")
		listWl   = flag.Bool("list-workloads", false, "list available workloads")
		jsonOut  = flag.Bool("json", false, "emit machine-readable JSON instead of text")
		saveQT   = flag.String("save-qtable", "", "save the trained CHROME Q-table to this file after the run")
		loadQT   = flag.String("load-qtable", "", "warm-start CHROME from a saved Q-table checkpoint")
	)
	flag.Parse()

	if *listWl {
		for _, n := range workload.Names() {
			fmt.Println(n)
		}
		return
	}

	if *cores <= 0 || *cores&(*cores-1) != 0 {
		fmt.Fprintf(os.Stderr, "-cores must be a positive power of two, got %d\n", *cores)
		os.Exit(2)
	}
	if *measure == 0 {
		fmt.Fprintln(os.Stderr, "-measure must be positive, got 0")
		os.Exit(2)
	}
	scheme, err := schemeByName(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// A CHROME scheme's agent is kept for its counters and the Q-table
	// flags.
	var agent *chrome.Agent
	if inner := scheme.Factory; strings.HasSuffix(scheme.Name, "CHROME") {
		scheme.Factory = func(sets, ways, cores int, obstructed func(mem.CoreID) bool) cache.Policy {
			agent = inner(sets, ways, cores, obstructed).(*chrome.Agent)
			if *loadQT != "" {
				f, err := os.Open(*loadQT)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				defer f.Close()
				if err := agent.LoadCheckpoint(f); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}
			return agent
		}
	} else if *saveQT != "" || *loadQT != "" {
		fmt.Fprintln(os.Stderr, "-save-qtable/-load-qtable require a CHROME policy")
		os.Exit(2)
	}
	pf, err := pfByName(*pfName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// build replays each workload's recording of warmup+measure
	// instructions, one replayer per core.
	build := func() ([]trace.Generator, error) {
		budget := mem.InstrOf(*warmup + *measure)
		names := strings.Split(*wl, ",")
		if len(names) == 1 {
			p, err := workload.ByName(names[0])
			if err != nil {
				return nil, err
			}
			return workload.HomogeneousMix(p, *cores, budget), nil
		}
		if len(names) != *cores {
			return nil, fmt.Errorf("got %d workloads for %d cores", len(names), *cores)
		}
		mix := workload.Mix{Profiles: make([]workload.Profile, *cores)}
		for i, n := range names {
			p, err := workload.ByName(strings.TrimSpace(n))
			if err != nil {
				return nil, err
			}
			mix.Profiles[i] = p
		}
		return mix.Generators(budget), nil
	}

	run := func(s experiments.Scheme) (sim.Result, error) {
		gens, err := build()
		if err != nil {
			return sim.Result{}, err
		}
		cfg := sim.ScaledConfig(*cores)
		cfg.L1Prefetcher = pf.L1
		cfg.L2Prefetcher = pf.L2
		sys := sim.New(cfg, gens, s.Factory)
		return sys.Run(mem.InstrOf(*warmup), mem.InstrOf(*measure)), nil
	}

	res, err := run(scheme)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *jsonOut {
		out := map[string]any{
			"policy":   res.PolicyName,
			"workload": *wl,
			"cores":    *cores,
			"prefetch": pf.Name,
			"result":   res,
		}
		if agent != nil {
			out["agent_incl_warmup"] = countAgent(agent)
		}
		if *baseline && scheme.Name != "LRU" {
			base, err := run(experiments.LRUScheme())
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			out["weighted_speedup"] = metrics.WeightedSpeedup(res.IPC, base.IPC)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("policy=%s workload=%s cores=%d prefetch=%s\n", res.PolicyName, *wl, *cores, pf.Name)
	// IPC, instructions and cycles cover the measured window; the C-AMAT
	// monitor is not reset at the warmup boundary.
	for i, ipc := range res.IPC {
		fmt.Printf("  core %2d: IPC %.4f (%d instr, %d cycles, C-AMAT %.1f incl. warmup)\n",
			i, ipc, res.Instructions[i], res.Cycles[i], res.CAMAT[i])
	}
	st := res.LLC
	fmt.Printf("  LLC: demand miss ratio %.1f%%, MPKI %.1f, EPHR %.1f%%, bypasses %d, fills %d\n",
		100*st.DemandMissRatio(), res.MPKI(), 100*st.EPHR(), st.Bypasses, st.Fills)
	fmt.Printf("  DRAM: %d reads, %d writes\n", res.DRAMReads, res.DRAMWrites)
	if agent != nil {
		c := countAgent(agent)
		fmt.Printf("  agent: %d decisions, %d SARSA updates, UPKSA %.0f, demand misses %d bypassed / %d inserted (incl. warmup)\n",
			c.Decisions, c.SARSAUpdates, c.UPKSA, c.DemandMissesBypassed, c.DemandMissesInserted)
	}

	if *baseline && scheme.Name != "LRU" {
		base, err := run(experiments.LRUScheme())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ws := metrics.WeightedSpeedup(res.IPC, base.IPC)
		fmt.Printf("  weighted speedup over LRU: %s\n", metrics.Pct(ws))
	}

	if *saveQT != "" && agent != nil {
		f, err := os.Create(*saveQT)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// Close explicitly: a failed write-back surfaces only at Close, so
		// the Q-table is not reported saved until Close succeeds.
		err = agent.SaveCheckpoint(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("  saved Q-table checkpoint to %s\n", *saveQT)
	}
}

// agentCounters are a CHROME agent's activity counters over the whole run:
// the agent is not reset at the warmup boundary.
type agentCounters struct {
	Decisions            uint64  `json:"decisions"`
	SARSAUpdates         uint64  `json:"sarsa_updates"`
	UPKSA                float64 `json:"upksa"`
	DemandMissesBypassed uint64  `json:"demand_misses_bypassed"`
	DemandMissesInserted uint64  `json:"demand_misses_inserted"`
}

func countAgent(a *chrome.Agent) agentCounters {
	st := a.Stats()
	demand := st.MissActions[0]
	return agentCounters{
		Decisions:            st.Decisions,
		SARSAUpdates:         a.QTable().Updates(),
		UPKSA:                a.UPKSA(),
		DemandMissesBypassed: demand[chrome.ActionBypass],
		DemandMissesInserted: demand[chrome.ActionEPV0] + demand[chrome.ActionEPV1] + demand[chrome.ActionEPV2],
	}
}

// schemes lists the policies -policy accepts: every registered scheme and
// the N-CHROME ablation.
func schemes() []experiments.Scheme {
	return append(experiments.AllSchemes(), experiments.CHROMEScheme(experiments.NChromeConfig()))
}

func schemeNames() []string {
	var names []string
	for _, s := range schemes() {
		names = append(names, s.Name)
	}
	return names
}

// schemeByName resolves a -policy value, ignoring case.
func schemeByName(name string) (experiments.Scheme, error) {
	for _, s := range schemes() {
		if strings.EqualFold(s.Name, name) {
			return s, nil
		}
	}
	return experiments.Scheme{}, fmt.Errorf("unknown policy %q", name)
}

func pfByName(name string) (experiments.PrefetchConfig, error) {
	switch name {
	case "default":
		return experiments.PFDefault(), nil
	case "stride-streamer":
		return experiments.PFStrideStreamer(), nil
	case "ipcp":
		return experiments.PFIPCP(), nil
	case "none":
		return experiments.PFNone(), nil
	}
	return experiments.PrefetchConfig{}, fmt.Errorf("unknown prefetch config %q", name)
}
