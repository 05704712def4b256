// Policy browser: run every implemented LLC management scheme on one
// workload mix and print a side-by-side metric table (speedup, demand miss
// ratio, EPHR, bypass count) — a quick way to explore how the schemes
// differ on a workload of interest.
//
//	go run ./examples/policybrowser [workload]
package main

import (
	"fmt"
	"os"

	"chrome/internal/experiments"
	"chrome/internal/metrics"
	"chrome/internal/sim"
	"chrome/internal/workload"
)

func main() {
	name := "xalancbmk"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	p, err := workload.ByName(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		fmt.Fprintln(os.Stderr, "available:", workload.Names())
		os.Exit(2)
	}

	const cores = 4
	pf := experiments.PFDefault()
	// AllSchemes lists LRU first, so schemes[0] is the baseline.
	schemes := append(experiments.AllSchemes(), experiments.CHROMEScheme(experiments.NChromeConfig()))

	run := func(s experiments.Scheme) sim.Result {
		cfg := sim.ScaledConfig(cores)
		cfg.L1Prefetcher = pf.L1
		cfg.L2Prefetcher = pf.L2
		sys := sim.New(cfg, workload.HomogeneousMix(p, cores), s.Factory)
		return sys.Run(100_000, 400_000)
	}

	base := run(schemes[0])
	tab := metrics.NewTable("policy", "speedup", "miss-ratio", "EPHR", "bypasses")
	tab.AddRow("LRU", "+0.0%", fmt.Sprintf("%.1f%%", 100*base.LLC.DemandMissRatio()),
		fmt.Sprintf("%.1f%%", 100*base.LLC.EPHR()), "0")
	for _, s := range schemes[1:] {
		r := run(s)
		tab.AddRow(s.Name,
			metrics.Pct(metrics.WeightedSpeedup(r.IPC, base.IPC)),
			fmt.Sprintf("%.1f%%", 100*r.LLC.DemandMissRatio()),
			fmt.Sprintf("%.1f%%", 100*r.LLC.EPHR()),
			fmt.Sprintf("%d", r.LLC.Bypasses))
	}
	fmt.Printf("workload %s, %d cores, %s prefetching:\n", name, cores, pf.Name)
	fmt.Print(tab)
}
