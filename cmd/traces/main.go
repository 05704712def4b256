// Command traces manages recorded workload trace files (the CHRC format,
// DESIGN.md §8) so FullScale suite re-runs can skip stream generation
// entirely.
//
// Usage:
//
//	traces record -dir traces                      # record all profiles at quick budget
//	traces record -dir traces -workloads mcf,gcc -scale full
//	traces record -dir traces -budget 600000       # explicit per-core budget
//	traces inspect [-n 5] traces/mcf-*.chrec
//	traces verify traces/mcf-*.chrec               # checksum + re-record comparison
//
// record writes one .chrec file per workload, keyed by (profile, stream
// seed, instruction budget); cmd/experiments -tracedir reuses them. verify
// validates the file's checksum and then re-records the live generator,
// proving the file still matches the registered workload definition.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"chrome/internal/experiments"
	"chrome/internal/mem"
	"chrome/internal/trace"
	"chrome/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = record(os.Args[2:])
	case "inspect":
		err = inspect(os.Args[2:])
	case "verify":
		err = verify(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "traces:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  traces record  -dir DIR [-workloads a,b,...] [-scale quick|full] [-budget N]
  traces inspect [-n N] FILE...
  traces verify  FILE...`)
}

// scaleBudget resolves a -scale name to its warmup+measure per-core window.
func scaleBudget(scale string) (mem.Instr, error) {
	switch scale {
	case "quick":
		sc := experiments.QuickScale()
		return sc.Warmup + sc.Measure, nil
	case "full":
		sc := experiments.FullScale()
		return sc.Warmup + sc.Measure, nil
	default:
		return 0, fmt.Errorf("unknown scale %q (want quick or full)", scale)
	}
}

func record(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	dir := fs.String("dir", "traces", "directory to write .chrec files into")
	names := fs.String("workloads", "", "comma-separated workload names (default: all registered)")
	scale := fs.String("scale", "quick", "instruction budget preset: quick | full (warmup+measure per core)")
	budget := fs.Uint64("budget", 0, "explicit per-core instruction budget (overrides -scale)")
	fs.Parse(args)

	b := mem.InstrOf(*budget)
	if b == 0 {
		var err error
		if b, err = scaleBudget(*scale); err != nil {
			return err
		}
	}
	var profiles []workload.Profile
	if *names == "" {
		profiles = workload.All()
	} else {
		for _, n := range strings.Split(*names, ",") {
			p, err := workload.ByName(strings.TrimSpace(n))
			if err != nil {
				return err
			}
			profiles = append(profiles, p)
		}
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	workload.SetTraceDir(*dir)
	for _, p := range profiles {
		rec := workload.Recorded(p, b)
		fmt.Printf("%s/%s: %d records, %d instructions, checksum %016x\n",
			*dir, workload.RecordingFileName(p, b), rec.Len(), rec.Instructions(), rec.Checksum())
	}
	return nil
}

func load(path string) (*trace.Recording, error) {
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

func inspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	n := fs.Int("n", 0, "also print the first N records")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("inspect: no files given")
	}
	for _, path := range fs.Args() {
		rec, err := load(path)
		if err != nil {
			return err
		}
		fmt.Printf("%s: workload %q, %d records, %d instructions (%.2f instr/record), checksum %016x\n",
			path, rec.Name(), rec.Len(), rec.Instructions(),
			float64(rec.Instructions())/float64(rec.Len()), rec.Checksum())
		for i := 0; i < *n && i < rec.Len(); i++ {
			r := rec.At(i)
			kind := "read "
			if r.Write {
				kind = "write"
			}
			dep := ""
			if r.Dependent {
				dep = " dependent"
			}
			fmt.Printf("  [%d] pc %#x addr %#x %s gap %d%s\n", i, r.PC, r.Addr, kind, r.Gap, dep)
		}
	}
	return nil
}

func verify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("verify: no files given")
	}
	for _, path := range fs.Args() {
		// ReadRecording already validates the checksum and instruction
		// count; what remains is proving the file matches the registered
		// workload definition, by re-recording the live generator to the
		// file's own instruction count (the stopping point is a pure
		// function of the stream, so equal budgets reproduce equal records).
		rec, err := load(path)
		if err != nil {
			return err
		}
		p, err := workload.ByName(rec.Name())
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fresh := workload.Recorded(p, mem.InstrOf(rec.Instructions()))
		if fresh.Len() != rec.Len() || fresh.Instructions() != rec.Instructions() {
			return fmt.Errorf("%s: STALE: live generator yields %d records / %d instructions, file has %d / %d",
				path, fresh.Len(), fresh.Instructions(), rec.Len(), rec.Instructions())
		}
		if fresh.Checksum() != rec.Checksum() {
			for i := 0; i < rec.Len(); i++ {
				if fresh.At(i) != rec.At(i) {
					return fmt.Errorf("%s: STALE: first divergence at record %d: file %+v, live %+v",
						path, i, rec.At(i), fresh.At(i))
				}
			}
			return fmt.Errorf("%s: STALE: checksum mismatch without record divergence (format bug?)", path)
		}
		fmt.Printf("%s: OK (%q, %d records, %d instructions, checksum %016x)\n",
			path, rec.Name(), rec.Len(), rec.Instructions(), rec.Checksum())
	}
	return nil
}
