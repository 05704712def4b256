package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"chrome/internal/sim"
	"chrome/internal/trace"
	"chrome/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the stored digests under testdata/")

// reportDigest hashes a report's table CSV plus its summary, rendered with
// shortest round-trip floats in sorted key order: any change to a reported
// number changes the digest.
func reportDigest(r Report) string {
	h := sha256.New()
	h.Write([]byte(r.Table.CSV()))
	keys := make([]string, 0, len(r.Summary))
	for k := range r.Summary {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, strconv.FormatFloat(r.Summary[k], 'g', -1, 64))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkDigests compares got against testdata/<name>.sha256, rewriting the
// file first under -update.
func checkDigests(t *testing.T, name string, lines []string) {
	t.Helper()
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", name+".sha256")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("%s digest changed:\n got  %s want %s", name, got, want)
	}
}

// TestReportDigests pins a set of runners at the tiny scale to committed
// SHA-256 digests of their reports. The set covers every scheme (extC),
// both trackers (fig02, fig09), prefetcher variation (fig03), the 4-core
// SPEC sweep (fig06-08), the heterogeneous mixes (fig10), the N-CHROME
// agent at 4/8/16 cores (fig12), the state-feature ablation (fig15), the
// Table I feature-selection study (extA), the learning-curve grid (extB)
// and the storage accounting (tab03-04). It is an oracle on the reported numbers
// that a change to both the simulator and its tests cannot pass.
// Regenerate with `go test ./internal/experiments -run ReportDigests
// -update` only when a change is meant to move the figures.
func TestReportDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	for _, id := range []string{"fig02", "fig03", "fig06-08", "fig09", "fig10", "fig12", "fig15", "extA", "extB", "extC", "tab03-04"} {
		t.Run(id, func(t *testing.T) {
			r, err := RunnerByID(id)
			if err != nil {
				t.Fatal(err)
			}
			var lines []string
			for _, rep := range r.Run(tinyScale()) {
				lines = append(lines, rep.ID+" "+reportDigest(rep))
			}
			checkDigests(t, id, lines)
		})
	}
}

// resultDigest hashes a sim.Result rendered with %+v, which prints floats
// in shortest round-trip form, so the digest moves with any changed IPC
// bit, cache counter or DRAM transfer count.
func resultDigest(res sim.Result) string {
	sum := sha256.Sum256(fmt.Appendf(nil, "%+v", res))
	return hex.EncodeToString(sum[:])
}

// TestSchemeResultDigests pins the full sim.Result of every registered
// scheme on the paper's Table V geometry (sim.PaperConfig, 4 cores, default
// prefetchers) for two heterogeneous mixes. Three more rows pin the core
// scheduler's interleaving at 1, 4 and 16 cores: LRU on sim.ScaledConfig
// over a mcf/lbm/omnetpp/libquantum round-robin, where any change to the
// order cores reach the shared LLC moves the per-core cycles and the LLC
// counters.
func TestSchemeResultDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	var lines []string
	for _, seed := range []uint64{1, 7} {
		mix := workload.HeterogeneousMixes(4, 1, seed)[0]
		for _, s := range AllSchemes() {
			cfg := sim.PaperConfig(4)
			pf := PFDefault()
			cfg.L1Prefetcher = pf.L1
			cfg.L2Prefetcher = pf.L2
			res := sim.New(cfg, mix.Generators(), s.Factory).Run(2_000, 10_000)
			lines = append(lines, fmt.Sprintf("seed%d %s %s", seed, s.Name, resultDigest(res)))
		}
	}
	names := []string{"mcf", "lbm", "omnetpp", "libquantum"}
	for _, cores := range []int{1, 4, 16} {
		gens := make([]trace.Generator, cores)
		for i := range gens {
			p, err := workload.ByName(names[i%len(names)])
			if err != nil {
				t.Fatal(err)
			}
			gens[i] = p.New(i)
		}
		res := sim.New(sim.ScaledConfig(cores), gens, LRUScheme().Factory).Run(5_000, 20_000)
		lines = append(lines, fmt.Sprintf("sched%d LRU %s", cores, resultDigest(res)))
	}
	checkDigests(t, "scheme-results", lines)
}
