// Command bench is the repository benchmark: four named workloads that
// exercise the simulator, the figure runners and the object cache end to
// end, each measured in its own child process, with every output checked
// for correctness and a separate traced run that breaks host time down by
// layer. See README.md for the workloads, metrics and protocol.
//
// Usage (from the repository root):
//
//	bash bench/run.sh -workload all -seed 1
//	bash bench/run.sh -workload mix4-chrome -seed 2 -trace 1
//	bash bench/run.sh -compare -pairs 10 -workload mix4-lru BIN_A BIN_B
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"chrome/internal/experiments"
)

// options are the command-line settings shared by parent and child.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	update   bool
	spans    string
	child    bool
	compare  bool
	pairs    int
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "workload name, or all")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: every input and RNG derives from it")
	fs.IntVar(&o.seconds, "seconds", 20, "host seconds of timed repetitions per workload")
	fs.IntVar(&o.trace, "trace", 0, "1 adds the traced repetition and prints the per-layer metrics")
	fs.BoolVar(&o.update, "update", false, "rewrite the pinned reference for this seed instead of checking it")
	fs.StringVar(&o.spans, "spans", "", "write the run's spans as JSON to this file")
	fs.BoolVar(&o.child, "child", false, "run one workload in this process (set by the parent)")
	fs.BoolVar(&o.compare, "compare", false, "paired A/B mode: alternate the two benchmark binaries given as arguments")
	fs.IntVar(&o.pairs, "pairs", 10, "paired A/B mode: number of pairs per workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	names, err := workloadNames(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	switch {
	case o.compare:
		return compareMain(o, names, fs.Args(), stdout, stderr)
	case o.child:
		rep, err := measure(workloadByName(names[0]), o)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	ok := true
	for _, name := range names {
		res, err := spawn(name, o, len(names) > 1, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		printReport(stdout, name, res, o.trace == 1)
		ok = ok && res.Correct
	}
	if !ok {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's machine-readable line: whether every output was
// correct, how many units of work were attempted and failed, and the
// metrics (end-to-end untraced, per-layer traced).
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a child hands its parent: the result plus every metric's
// samples, from which the parent prints counts and quartiles.
type report struct {
	result
	Samples map[string][]float64 `json:"samples"`
}

// spawn runs one workload in a child process of this binary with
// GOMAXPROCS pinned to the host's CPU count, and adds the child's peak
// resident set size to its end-to-end metrics.
func spawn(name string, o options, many bool, stderr io.Writer) (report, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	args := []string{
		"-child", "-workload", name,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds),
		"-trace", strconv.Itoa(o.trace),
	}
	if o.update {
		args = append(args, "-update")
	}
	if o.spans != "" {
		spans := o.spans
		if many {
			spans = strings.TrimSuffix(spans, ".json") + "-" + name + ".json"
		}
		args = append(args, "-spans", spans)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	cmd.Stderr = stderr
	killWithParent(cmd)
	out, err := cmd.Output()
	if err != nil {
		return report{}, fmt.Errorf("workload process: %w", err)
	}
	var rep report
	if err := json.Unmarshal(lastLine(out), &rep); err != nil {
		return report{}, fmt.Errorf("workload process output: %w", err)
	}
	if o.trace == 0 {
		rss := float64(peakRSSBytes(cmd.ProcessState)) / (1 << 20)
		rep.Metrics["peak_rss_MiB"] = metric{rss, "MiB"}
		rep.Samples["peak_rss_MiB"] = []float64{rss}
	}
	return rep, nil
}

// lastLine returns the final non-empty line of out.
func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

// printReport prints one line per metric — workload, metric, value, unit,
// sample count, first and third quartile — and then the result's JSON
// line, which is always the last line of a single-workload run.
func printReport(w io.Writer, name string, rep report, traced bool) {
	bw := bufio.NewWriter(w)
	keys := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := rep.Metrics[k]
		s := rep.Samples[k]
		if len(s) == 0 {
			s = []float64{m.Value}
		}
		q1, q3 := quartiles(s)
		fmt.Fprintf(bw, "%s %s %.6g %s %d %.6g %.6g\n", name, k, m.Value, m.Unit, len(s), q1, q3)
	}
	fmt.Fprintf(bw, "%s attempted=%d failed=%d correct=%v traced=%v\n", name, rep.Attempted, rep.Failed, rep.Correct, traced)
	line, _ := json.Marshal(rep.result) // re-encodes what the child encoded, so it cannot fail
	bw.Write(line)
	bw.WriteByte('\n')
	bw.Flush()
}

// ledger counts the units of work a run attempted and those whose output
// failed a check, reporting the first few failures on standard error.
type ledger struct {
	attempted, failed int64
}

const maxFailureNotes = 10

func (l *ledger) attempt(n int64) { l.attempted += n }

func (l *ledger) fail(format string, args ...any) {
	l.failed++
	if l.failed <= maxFailureNotes {
		fmt.Fprintf(os.Stderr, "bench: check failed: "+format+"\n", args...)
	}
}

// bench is one set-up workload instance.
type bench interface {
	// rep runs one timed repetition, checks its outputs, and returns the
	// work it did in millions of items: simulated instructions for the
	// simulator workloads, cache operations for objcache-scan.
	rep(l *ledger) float64
	// layers runs one traced repetition, whose wall seconds it returns,
	// and the layer probes, and fills the per-layer metrics. The tracer
	// is calibrated.
	layers(l *ledger, t *tracer, m map[string]float64) float64
}

// workloadDef is one named benchmark workload.
type workloadDef struct {
	name, why string
	// setups is how often set-up runs for the setup_s median: once where
	// the program itself memoizes the set-up work, so a second would time
	// nothing.
	setups int
	setup  func(o options, l *ledger) (bench, error)
}

// minReps is the fewest timed repetitions a run makes, whatever -seconds.
const minReps = 3

// measure sets the workload up, times repetitions for the configured
// seconds, and with tracing on adds the per-layer metrics.
func measure(w *workloadDef, o options) (report, error) {
	l := &ledger{}
	t := newTracer()
	var b bench
	var setups []float64
	for i := 0; i < w.setups; i++ {
		b = nil
		runtime.GC() // drop the previous instance so peak RSS holds one
		start := time.Now()
		var err error
		if b, err = w.setup(o, l); err != nil {
			return report{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	rep := report{
		result:  result{Metrics: map[string]metric{}},
		Samples: map[string][]float64{},
	}
	var walls, rates []float64
	begin := time.Now()
	for {
		start := time.Now()
		work := b.rep(l)
		wall := time.Since(start).Seconds()
		t.span("rep", start)
		walls = append(walls, wall)
		rates = append(rates, work/wall)
		elapsed := time.Since(begin).Seconds()
		if len(walls) >= minReps && elapsed+elapsed/float64(len(walls)) > float64(o.seconds) {
			break
		}
	}
	if o.trace == 1 {
		t.calibrate()
		m := map[string]float64{"bench.timer_ns": t.timerNs}
		traced := b.layers(l, t, m)
		m["bench.traced_rep_s"] = traced
		m["bench.trace_overhead_pct"] = (traced/median(walls) - 1) * 100
		for _, d := range perLayerMetrics {
			rep.Metrics[d.name] = metric{m[d.name], d.unit}
		}
	} else {
		rep.Metrics["setup_s"] = metric{median(setups), "s"}
		rep.Samples["setup_s"] = setups
		rep.Metrics["throughput"] = metric{median(rates), "M/s"}
		rep.Samples["throughput"] = rates
	}
	rep.Attempted, rep.Failed = l.attempted, l.failed
	rep.Correct = l.failed == 0 && l.attempted > 0
	if o.spans != "" {
		if err := t.write(o.spans); err != nil {
			return report{}, err
		}
	}
	return rep, nil
}

// endToEndMetrics and perLayerMetrics name every metric the benchmark
// prints, with its unit; BENCHMARK.json lists the same names.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"throughput", "M/s"},
	{"peak_rss_MiB", "MiB"},
}

type metricDef struct{ name, unit string }

// Per-layer host times are per-call costs or shares of the traced
// repetition, so a layer a workload does not run reads 0 calls and 0%.
var perLayerMetrics = []metricDef{
	{"workload.inputs_s", "s"},
	{"trace.next.calls", "count"},
	{"trace.next.ns", "ns/call"},
	{"trace.next.share_pct", "%"},
	{"prefetch.train.calls", "count"},
	{"prefetch.train.ns", "ns/call"},
	{"prefetch.train.share_pct", "%"},
	{"prefetch.useful_ratio", "ratio"},
	{"chrome.victim.calls", "count"},
	{"chrome.victim.ns", "ns/call"},
	{"chrome.onhit.calls", "count"},
	{"chrome.onhit.ns", "ns/call"},
	{"chrome.onfill.calls", "count"},
	{"chrome.onfill.ns", "ns/call"},
	{"chrome.onevict.calls", "count"},
	{"chrome.onevict.ns", "ns/call"},
	{"chrome.share_pct", "%"},
	{"chrome.bypass_ratio", "ratio"},
	{"chrome.explore_ratio", "ratio"},
	{"chrome.sampled_frac", "ratio"},
	{"policy.victim.calls", "count"},
	{"policy.victim.ns", "ns/call"},
	{"policy.onhit.calls", "count"},
	{"policy.onhit.ns", "ns/call"},
	{"policy.onfill.calls", "count"},
	{"policy.onfill.ns", "ns/call"},
	{"policy.onevict.calls", "count"},
	{"policy.onevict.ns", "ns/call"},
	{"policy.share_pct", "%"},
	{"cache.l1.hit_ratio", "ratio"},
	{"cache.l2.hit_ratio", "ratio"},
	{"cache.llc.hit_ratio", "ratio"},
	{"cache.llc.accesses", "count"},
	{"cache.llc.mpki", "1/kinstr"},
	{"cache.llc_replay.mono_ns", "ns/access"},
	{"cache.llc_replay.iface_ns", "ns/access"},
	{"cpu.mem_accesses", "count"},
	{"cpu.load_latency_cyc", "cycles"},
	{"cpu.step.ns", "ns/step"},
	{"cpu.ipc_geomean", "instr/cycle"},
	{"sim.dram.reads", "count"},
	{"sim.dram.writes", "count"},
	{"sim.self_pct", "%"},
	{"camat.cycles", "cycles"},
	{"experiments.pool_util", "ratio"},
	{"experiments.chrome_ws_pct", "%"},
	{"objcache.get.calls", "count"},
	{"objcache.get.ns", "ns/call"},
	{"objcache.set.calls", "count"},
	{"objcache.set.ns", "ns/call"},
	{"objcache.hit_rate", "ratio"},
	{"objcache.bypass_ratio", "ratio"},
	{"objcache.evictions", "count"},
	{"objcache.p50_us", "us/op"},
	{"objcache.p99_us", "us/op"},
	{"objcache.scaling", "ratio"},
	{"bench.timer_ns", "ns"},
	{"bench.traced_rep_s", "s"},
	{"bench.trace_overhead_pct", "%"},
}

// workloads is the benchmark's workload registry, in run order.
var workloads = []*workloadDef{
	{
		name:   "mix4-chrome",
		why:    "4-core SPEC mixes under CHROME: the LLC agent's hooks are a large share of host time, so agent changes show here",
		setups: 5,
		setup:  setupMix(chromeScheme),
	},
	{
		name:   "mix4-lru",
		why:    "the same mixes under LRU with no agent: agent-only changes must read no change, cache-chain or trace/cpu changes show",
		setups: 5,
		setup:  setupMix(experiments.LRUScheme),
	},
	{
		name:   "fig06-quick",
		why:    "the fig06-08 runner at quick scale on the 2-worker experiments pool: all six schemes, so per-scheme or pool changes show",
		setups: 1,
		setup:  setupFig,
	},
	{
		name:   "objcache-scan",
		why:    "2 closed-loop clients on the CHROME-driven sharded object cache under Zipf reads and scans: agent use under locks, no simulator",
		setups: 5,
		setup:  setupObj,
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// workloadNames resolves the -workload flag.
func workloadNames(sel string) ([]string, error) {
	var names []string
	for _, w := range workloads {
		if sel == "all" || sel == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		var all []string
		for _, w := range workloads {
			all = append(all, w.name)
		}
		return nil, errors.New("unknown workload " + strconv.Quote(sel) + " (have all, " + strings.Join(all, ", ") + ")")
	}
	return names, nil
}
