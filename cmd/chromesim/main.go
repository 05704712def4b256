// Command chromesim runs a single simulation configuration — a workload
// mix, an LLC policy, a prefetcher pair, and a core count — and prints the
// measured statistics. It is the quickest way to poke at the simulator.
//
// Usage:
//
//	chromesim -workload mcf -policy CHROME -cores 4
//	chromesim -workload "mcf,gcc,milc,omnetpp" -policy CARE -cores 4
//	chromesim -trace traces/mcf-*.chrec -cores 2   # replay a recording (traces record)
//	chromesim -list-workloads
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
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
		wl        = flag.String("workload", "mcf", "workload name, or comma-separated list (one per core)")
		traceFile = flag.String("trace", "", "replay a CHRC recording (.chrec, see traces record) on every core instead of a workload")
		policy    = flag.String("policy", "CHROME", "LLC policy: LRU | Hawkeye | Glider | Mockingjay | CARE | SHiP++ | CHROME | N-CHROME")
		cores     = flag.Int("cores", 4, "number of cores")
		pfName    = flag.String("prefetch", "default", "prefetchers: default | stride-streamer | ipcp | none")
		warmup    = flag.Uint64("warmup", 100_000, "warmup instructions per core")
		measure   = flag.Uint64("measure", 500_000, "measured instructions per core")
		baseline  = flag.Bool("baseline", true, "also run LRU and report weighted speedup")
		listWl    = flag.Bool("list-workloads", false, "list available workloads")
		jsonOut   = flag.Bool("json", false, "emit machine-readable JSON instead of text")
		saveQT    = flag.String("save-qtable", "", "save the trained CHROME Q-table to this file after the run")
		loadQT    = flag.String("load-qtable", "", "warm-start CHROME from a saved Q-table checkpoint")
	)
	flag.Parse()

	if *listWl {
		for _, n := range workload.Names() {
			fmt.Println(n)
		}
		return
	}

	scheme, err := schemeByName(*policy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var agent *chrome.Agent
	if *saveQT != "" || *loadQT != "" {
		if !strings.Contains(strings.ToUpper(*policy), "CHROME") {
			fmt.Fprintln(os.Stderr, "-save-qtable/-load-qtable require a CHROME policy")
			os.Exit(2)
		}
		ccfg := experiments.ChromeConfig()
		if strings.EqualFold(*policy, "N-CHROME") {
			ccfg = experiments.NChromeConfig()
		}
		scheme = experiments.Scheme{Name: scheme.Name, Factory: func(sets, ways, cores int, obstructed func(mem.CoreID) bool) cache.Policy {
			agent = chrome.New(ccfg, sets, ways)
			agent.Obstructed = obstructed
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
		}}
	}
	pf, err := pfByName(*pfName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var rec *trace.Recording
	if *traceFile != "" {
		rec, err = readRecording(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// A replayer never wraps, so a recording shorter than the run would
		// exhaust mid-simulation; refuse it up front instead.
		if need := *warmup + *measure; rec.Instructions() < need {
			fmt.Fprintf(os.Stderr, "%s covers %d instructions per core, fewer than -warmup + -measure = %d; re-record it with: traces record -workloads %s -budget %d\n",
				*traceFile, rec.Instructions(), need, rec.Name(), need)
			os.Exit(2)
		}
		*wl = filepath.Base(*traceFile)
	}

	build := func() ([]trace.Generator, error) {
		if rec != nil {
			gens := make([]trace.Generator, *cores)
			for i := range gens {
				gens[i] = rec.Replayer(mem.AddrOf(uint64(i)) << 36)
			}
			return gens, nil
		}
		names := strings.Split(*wl, ",")
		if len(names) == 1 {
			p, err := workload.ByName(names[0])
			if err != nil {
				return nil, err
			}
			return workload.HomogeneousMix(p, *cores), nil
		}
		if len(names) != *cores {
			return nil, fmt.Errorf("got %d workloads for %d cores", len(names), *cores)
		}
		gens := make([]trace.Generator, *cores)
		for i, n := range names {
			p, err := workload.ByName(strings.TrimSpace(n))
			if err != nil {
				return nil, err
			}
			gens[i] = p.New(i)
		}
		return gens, nil
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
	for i, ipc := range res.IPC {
		fmt.Printf("  core %2d: IPC %.4f (%d instr, %d cycles, C-AMAT %.1f)\n",
			i, ipc, res.Instructions[i], res.Cycles[i], res.CAMAT[i])
	}
	st := res.LLC
	fmt.Printf("  LLC: demand miss ratio %.1f%%, MPKI %.1f, EPHR %.1f%%, bypasses %d, fills %d\n",
		100*st.DemandMissRatio(), res.MPKI(), 100*st.EPHR(), st.Bypasses, st.Fills)
	fmt.Printf("  DRAM: %d reads, %d writes\n", res.DRAMReads, res.DRAMWrites)

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

func schemeByName(name string) (experiments.Scheme, error) {
	switch strings.ToUpper(name) {
	case "LRU":
		return experiments.LRUScheme(), nil
	case "HAWKEYE":
		return experiments.HawkeyeScheme(), nil
	case "GLIDER":
		return experiments.GliderScheme(), nil
	case "MOCKINGJAY":
		return experiments.MockingjayScheme(), nil
	case "CARE":
		return experiments.CAREScheme(), nil
	case "SHIP++":
		return experiments.SHiPPPScheme(), nil
	case "CHROME":
		return experiments.CHROMEScheme(experiments.ChromeConfig()), nil
	case "N-CHROME":
		return experiments.CHROMEScheme(experiments.NChromeConfig()), nil
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

func readRecording(path string) (*trace.Recording, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rec, err := trace.ReadRecording(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}
