// Command experiments runs the CHROME paper's evaluation reproductions
// (one runner per table/figure; see DESIGN.md §3) and prints paper-style
// result tables.
//
// Usage:
//
//	experiments -list
//	experiments -run fig06-08 -scale quick
//	experiments -scale full            # entire suite (tens of minutes)
//	experiments -scale full -j 8       # ... on 8 workers
//	experiments -qualify               # workload MPKI qualification
//
// Independent simulation cells (one mix under one scheme) run on a bounded
// worker pool sized by -j; results are merged deterministically, so the
// output is byte-identical to a sequential run (-j 1) at equal seeds. The
// core simulator packages are single-threaded, and concurrent cells share
// no mutable state (the race-detector run of TestParallelMatchesSequential
// checks it).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"chrome/internal/experiments"
	"chrome/internal/mem"
	"chrome/internal/workload"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list available experiment runners")
		runID   = flag.String("run", "", "run specific experiments by id, comma-separated (default: all)")
		scale   = flag.String("scale", "quick", "simulation scale: quick | full")
		qualify = flag.Bool("qualify", false, "print per-workload baseline MPKI (selection criterion)")
		outdir  = flag.String("outdir", "", "also write each report as CSV into this directory")
		mdOut   = flag.String("md", "", "also write all reports as a markdown results document")
		jobs    = flag.Int("j", runtime.NumCPU(), "worker pool size for independent simulation cells (1 = sequential)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		memProf = flag.String("memprofile", "", "write an allocation profile to this file at exit")
		warmup  = flag.Uint64("warmup", 0, "override the scale's per-core warmup instruction budget (0 = scale default)")
		measure = flag.Uint64("measure", 0, "override the scale's per-core measured instruction budget (0 = scale default)")
	)
	flag.Parse()
	if *jobs < 1 {
		fmt.Fprintf(os.Stderr, "-j must be >= 1 (got %d)\n", *jobs)
		os.Exit(2)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush outstanding allocations into the profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}()
	}

	if *list {
		for _, r := range experiments.Runners() {
			fmt.Printf("%-10s %s\n", r.ID, r.Title)
		}
		return
	}

	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.QuickScale()
	case "full":
		sc = experiments.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want quick or full)\n", *scale)
		os.Exit(2)
	}
	if *warmup > 0 {
		sc.Warmup = mem.InstrOf(*warmup)
	}
	if *measure > 0 {
		sc.Measure = mem.InstrOf(*measure)
	}
	sc.Parallelism = *jobs

	if *qualify {
		mpki := experiments.QualifyWorkloads(sc)
		names := make([]string, 0, len(mpki))
		for n := range mpki {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println("workload MPKI (1-core, no prefetching, LRU):")
		for _, n := range names {
			marker := ""
			if mpki[n] <= 1 {
				marker = "  <-- BELOW the MPKI>1 selection criterion"
			}
			fmt.Printf("  %-14s %7.1f%s\n", n, mpki[n], marker)
		}
		return
	}

	runners := experiments.Runners()
	if *runID != "" {
		runners = runners[:0]
		for _, id := range strings.Split(*runID, ",") {
			r, err := experiments.RunnerByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			runners = append(runners, r)
		}
	}

	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	// Throughput numbers are only comparable with the environment pinned;
	// report it up front so every sim_MIPS figure below is attributable.
	fmt.Printf("env: %s, GOMAXPROCS=%d\n\n", runtime.Version(), runtime.GOMAXPROCS(0))

	start := time.Now()
	var all []experiments.Report
	for _, r := range runners {
		t0 := time.Now()
		i0 := experiments.SimulatedInstructions()
		g0 := workload.GenerationTime()
		for _, rep := range r.Run(sc) {
			fmt.Println(rep)
			all = append(all, rep)
			if *outdir != "" {
				if err := writeCSV(*outdir, rep); err != nil {
					fmt.Fprintln(os.Stderr, "csv:", err)
				}
			}
		}
		fmt.Printf("(%s completed in %s, %s%s)\n\n", r.ID,
			time.Since(t0).Round(time.Second),
			mips(experiments.SimulatedInstructions()-i0, time.Since(t0)),
			genSplit(workload.GenerationTime()-g0, time.Since(t0)))
	}
	fmt.Printf("suite completed in %s at scale=%s (%s)\n",
		time.Since(start).Round(time.Second), *scale,
		mips(experiments.SimulatedInstructions(), time.Since(start)))
	if *mdOut != "" {
		if err := os.WriteFile(*mdOut, []byte(markdownReport(all, *scale, sc, time.Since(start))), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "md:", err)
			os.Exit(1)
		}
		fmt.Println("wrote", *mdOut)
	}
}

// genSplit formats the generation-vs-simulation wall-clock split of a
// runner: recording every workload stream once, then replaying it.
func genSplit(gen, total time.Duration) string {
	return fmt.Sprintf(", trace gen %s / sim %s",
		gen.Round(time.Millisecond), (total - gen).Round(time.Millisecond))
}

// mips formats simulated throughput: retired instructions per wall-second,
// in millions. This is the simulator-speed metric, not the modeled IPC.
func mips(instructions uint64, elapsed time.Duration) string {
	secs := elapsed.Seconds()
	if secs <= 0 {
		return "simulated MIPS n/a"
	}
	return fmt.Sprintf("simulated %.2f MIPS", float64(instructions)/1e6/secs)
}

// markdownReport renders all reports as a results document.
func markdownReport(reports []experiments.Report, scale string, sc experiments.Scale, elapsed time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Recorded experiment results (scale=%s)\n\n", scale)
	fmt.Fprintf(&b, "Budgets: %d warmup + %d measured instructions per core; "+
		"heterogeneous mixes %d/%d/%d at 4/8/16 cores; suite runtime %s.\n\n",
		sc.Warmup, sc.Measure, sc.HeteroMixes4, sc.HeteroMixes8, sc.HeteroMixes16,
		elapsed.Round(time.Second))
	for _, rep := range reports {
		fmt.Fprintf(&b, "## %s — %s\n\n", rep.ID, rep.Title)
		b.WriteString("```\n")
		b.WriteString(rep.Table.String())
		b.WriteString("```\n\n")
		for _, n := range rep.Notes {
			fmt.Fprintf(&b, "- %s\n", n)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// writeCSV stores a report's table (and summary values as trailing
// comment lines) under <dir>/<id>.csv.
func writeCSV(dir string, rep experiments.Report) error {
	var b strings.Builder
	b.WriteString(rep.Table.CSV())
	keys := make([]string, 0, len(rep.Summary))
	for k := range rep.Summary {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "# %s,%g\n", k, rep.Summary[k])
	}
	return os.WriteFile(filepath.Join(dir, rep.ID+".csv"), []byte(b.String()), 0o644)
}
