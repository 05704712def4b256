package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBounds(path string) ([]bound, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// compareMain runs two benchmark binaries in pairs, alternating which runs
// first, with the same seed inside a pair and a new seed for each pair, and
// gives each workload and end-to-end metric a verdict for B against A.
func compareMain(o options, names, bins []string, stdout, stderr io.Writer) int {
	if len(bins) != 2 {
		fmt.Fprintln(stderr, "bench: -compare takes two benchmark binaries, A (parent) then B (change)")
		return 2
	}
	bounds, err := loadBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintln(stdout, "workload metric A_median A_q1 A_q3 B_median B_q1 B_q3 B_wins verdict")
	for _, name := range names {
		var runs [2][]result
		for pair := 0; pair < o.pairs; pair++ {
			seed := o.seed + uint64(pair)
			for i := 0; i < 2; i++ {
				side := (pair + i) % 2
				res, err := runBinary(bins[side], name, seed, o.seconds, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s %s seed %d: %v\n", bins[side], name, seed, err)
					return 1
				}
				runs[side] = append(runs[side], res)
			}
		}
		for _, bd := range bounds {
			var a, b []float64
			for p := range runs[0] {
				a = append(a, runs[0][p].Metrics[bd.Name].Value)
				b = append(b, runs[1][p].Metrics[bd.Name].Value)
			}
			wins, v := verdict(a, b, bd)
			qa1, qa3 := quartiles(a)
			qb1, qb3 := quartiles(b)
			fmt.Fprintf(stdout, "%s %s %.6g %.6g %.6g %.6g %.6g %.6g %d/%d %s\n",
				name, bd.Name, median(a), qa1, qa3, median(b), qb1, qb3, wins, len(a), v)
		}
	}
	return 0
}

// verdict applies the paired rule to one metric, given A's and B's values
// pair by pair. B improved when, over at least ten pairs, it wins at least
// nine tenths of them and the medians differ by more than A's interquartile
// range; it is worse
// when its median is worse than A's by more than the bound; the result is
// unresolved when A's own spread exceeds the bound, and unchanged
// otherwise.
func verdict(a, b []float64, bd bound) (wins int, v string) {
	better := func(x, y float64) bool { // x reads better than y
		if bd.Better == "higher" {
			return x > y
		}
		return x < y
	}
	for i := range a {
		if better(b[i], a[i]) {
			wins++
		}
	}
	ma, mb := median(a), median(b)
	q1, q3 := quartiles(a)
	gap := mb - ma
	if bd.Better != "higher" {
		gap = -gap
	}
	switch {
	case len(a) >= 10 && wins*10 >= 9*len(a) && gap > q3-q1:
		return wins, "improved"
	case -gap > bd.Bound*ma:
		return wins, "worse"
	case q3-q1 > bd.Bound*ma:
		return wins, "unresolved"
	}
	return wins, "unchanged"
}

// runBinary runs one benchmark binary on one workload and parses its
// result line.
func runBinary(bin, name string, seed uint64, seconds int, stderr io.Writer) (result, error) {
	cmd := exec.Command(bin, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	var res result
	if err := json.Unmarshal(lastLine(out), &res); err != nil {
		return result{}, err
	}
	if !res.Correct {
		return result{}, fmt.Errorf("outputs failed their checks (%d of %d)", res.Failed, res.Attempted)
	}
	return res, nil
}
