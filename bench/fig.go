package main

import (
	"fmt"
	"maps"
	"slices"
	"syscall"
	"time"

	"chrome/internal/experiments"
	"chrome/internal/workload"
)

// figBench calls the fig06-08 runner at quick scale on a 2-worker pool.
type figBench struct {
	run        func(experiments.Scale) []experiments.Report
	sc         experiments.Scale
	first, ref map[string]string
	upd        func(map[string]string) error
	chromePct  float64
	cpuS, wall float64 // process CPU and wall seconds over the timed calls
}

// figWorkers is the experiments pool size: fixed, so the workload is the
// same on every host.
const figWorkers = 2

// setupFig makes one untimed call, which records the streams the runner
// replays and settles every lazy initialization, so the timed calls are the
// steady state every later call of a process runs in.
func setupFig(o options, l *ledger) (bench, error) {
	r, err := experiments.RunnerByID("fig06-08")
	if err != nil {
		return nil, err
	}
	sc := experiments.QuickScale()
	sc.Parallelism = figWorkers
	sc.Seed = o.seed
	b := &figBench{run: r.Run, sc: sc}
	if o.update {
		b.upd = func(d map[string]string) error {
			return updateRef(refDir, o.seed, func(r *reference) { r.Digests["fig06-quick"] = d })
		}
	} else {
		ref, err := loadRef(refDir, o.seed)
		if err != nil {
			return nil, err
		}
		if ref != nil {
			if b.ref = ref.Digests["fig06-quick"]; b.ref == nil {
				return nil, fmt.Errorf("%s pins no digests for fig06-quick", refPath(refDir, o.seed))
			}
		}
	}
	b.call(l)
	return b, nil
}

func (b *figBench) rep(l *ledger) float64 {
	instr := experiments.SimulatedInstructions()
	cpu0, start := processCPU(), time.Now()
	b.call(l)
	b.wall += time.Since(start).Seconds()
	b.cpuS += processCPU() - cpu0
	return float64(experiments.SimulatedInstructions()-instr) / 1e6
}

// call runs the runner once and checks its reports against the first
// call's and the pinned digests.
func (b *figBench) call(l *ledger) {
	reps := b.run(b.sc)
	l.attempt(1)
	got := reportDigests(reps)
	if want := []string{"fig06", "fig07", "fig08"}; !slices.Equal(slices.Sorted(maps.Keys(got)), want) {
		l.fail("fig06-quick: reports %v, want %v", slices.Sorted(maps.Keys(got)), want)
	}
	for _, r := range reps {
		if r.ID == "fig06" {
			b.chromePct = r.Summary["chrome_pct"]
		}
	}
	if b.first == nil {
		b.first = got
		if b.upd != nil {
			if err := b.upd(got); err != nil {
				l.fail("fig06-quick: updating the reference: %v", err)
			}
		}
	} else if !maps.Equal(got, b.first) {
		l.fail("fig06-quick: reports differ from the first call")
	}
	if b.ref != nil && !maps.Equal(got, b.ref) {
		l.fail("fig06-quick: reports differ from the pinned reference")
	}
}

// layers reports the pool's utilization over the timed calls. The runner
// builds its systems internally, so there is nothing to shim: the traced
// repetition is one more plain call, and its overhead reads the noise.
func (b *figBench) layers(l *ledger, t *tracer, m map[string]float64) float64 {
	m["experiments.pool_util"] = b.cpuS / (b.wall * figWorkers)
	m["experiments.chrome_ws_pct"] = b.chromePct
	m["workload.inputs_s"] = workload.GenerationTime().Seconds()
	start := time.Now()
	b.call(l)
	traced := time.Since(start).Seconds()
	t.span("traced-rep", start)
	return traced
}

// processCPU returns the process's user+system CPU seconds so far.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // fails only for a bad who or pointer, neither possible here
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
