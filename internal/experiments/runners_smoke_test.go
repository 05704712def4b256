package experiments

import (
	"strings"
	"testing"
)

// TestAllRunnersSmoke executes every experiment runner at the tiny scale
// and checks the report contract: non-empty tables, stable IDs, and notes
// carrying the paper reference. This is the coverage test for the figure
// harness; the recorded results come from cmd/experiments -scale full.
func TestAllRunnersSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed suite")
	}
	for _, r := range Runners() {
		t.Run(r.ID, func(t *testing.T) {
			reports := tinyReports(r)
			if len(reports) == 0 {
				t.Fatal("runner produced no reports")
			}
			for _, rep := range reports {
				if rep.ID == "" || rep.Title == "" {
					t.Fatalf("incomplete report %+v", rep)
				}
				if rep.Table == nil {
					t.Fatal("report has no table")
				}
				body := rep.Table.String()
				if !strings.Contains(body, "\n") || len(body) < 20 {
					t.Fatalf("table suspiciously small:\n%s", body)
				}
				if len(rep.Notes) == 0 {
					t.Fatal("report has no notes (paper reference expected)")
				}
			}
		})
	}
}

// TestFig12ReportsBothVariants verifies the N-CHROME comparison carries
// both agents' numbers at every core count.
func TestFig12ReportsBothVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	rep := Fig12(tinyScale())[0]
	for _, cores := range []string{"4", "8", "16"} {
		if _, ok := rep.Summary["chrome_"+cores+"c_pct"]; !ok {
			t.Errorf("missing CHROME %s-core summary", cores)
		}
		if _, ok := rep.Summary["nchrome_"+cores+"c_pct"]; !ok {
			t.Errorf("missing N-CHROME %s-core summary", cores)
		}
	}
}

// TestFeatureStudyCoversCandidates verifies the Table I study evaluates
// every candidate state vector.
func TestFeatureStudyCoversCandidates(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	rep := FeatureStudy(tinyScale())[0]
	if rep.Summary["candidates"] < 8 {
		t.Fatalf("feature study covered %v candidates, want >= 8", rep.Summary["candidates"])
	}
	if !strings.Contains(rep.Table.String(), "PC+PN (paper)") {
		t.Fatal("paper's feature pair missing from the study")
	}
}
