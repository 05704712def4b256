package experiments

import (
	"sync/atomic"
	"testing"
)

func TestParMapOrderAndCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 9} {
		sc := Scale{Parallelism: workers}
		var calls atomic.Int64
		got := parMap(sc, 7, func(i int) int {
			calls.Add(1)
			return i * i
		})
		if calls.Load() != 7 {
			t.Fatalf("workers=%d: %d calls, want 7", workers, calls.Load())
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
	if got := parMap(Scale{Parallelism: 4}, 0, func(int) int { return 1 }); len(got) != 0 {
		t.Fatalf("empty parMap returned %v", got)
	}
}

func TestParGridShape(t *testing.T) {
	sc := Scale{Parallelism: 3}
	grid := parGrid(sc, 3, 4, func(r, c int) int { return 10*r + c })
	if len(grid) != 3 {
		t.Fatalf("rows = %d, want 3", len(grid))
	}
	for r := range grid {
		if len(grid[r]) != 4 {
			t.Fatalf("row %d has %d cols, want 4", r, len(grid[r]))
		}
		for c := range grid[r] {
			if grid[r][c] != 10*r+c {
				t.Fatalf("grid[%d][%d] = %d, want %d", r, c, grid[r][c], 10*r+c)
			}
		}
	}
}

func TestWorkersResolution(t *testing.T) {
	if got := (Scale{Parallelism: 5}).workers(); got != 5 {
		t.Fatalf("explicit parallelism = %d, want 5", got)
	}
	if got := (Scale{}).workers(); got < 1 {
		t.Fatalf("default workers = %d, want >= 1", got)
	}
}

// goldenRunners is the determinism probe set: a homogeneous grid sweep
// (shared by most figures), the heterogeneous mix sweep, and the two-run
// learning-curve grid — together they cover every parallel code path
// (homoSweep, mixSweep, speedups, parMap cells).
var goldenRunners = []string{"fig03", "fig10", "extB"}

// renderAt runs the golden runner set at the given parallelism and renders
// every report to one string.
func renderAt(t *testing.T, parallelism int) string {
	t.Helper()
	sc := tinyScale()
	sc.Parallelism = parallelism
	return renderGolden(t, sc)
}

// renderGolden runs the golden runner set at the given scale and renders
// every report to one string.
func renderGolden(t *testing.T, sc Scale) string {
	t.Helper()
	var out string
	for _, id := range goldenRunners {
		r, err := RunnerByID(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range r.Run(sc) {
			out += rep.String()
		}
	}
	return out
}

// TestParallelMatchesSequential is the golden determinism test behind the
// -j flag: at equal seeds, the rendered reports of a parallel run must be
// byte-identical to the sequential run. Run under -race in CI, it is also
// the only guard against two cells sharing mutable state.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	seq := renderAt(t, 1)
	par := renderAt(t, 4)
	if seq != par {
		t.Fatalf("parallel output diverged from sequential run:\n--- -j 1 ---\n%s\n--- -j 4 ---\n%s", seq, par)
	}
	if len(seq) < 100 {
		t.Fatalf("golden output suspiciously small:\n%s", seq)
	}
}
