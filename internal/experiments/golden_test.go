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
)

var update = flag.Bool("update", false, "rewrite the stored report digests under testdata/")

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

// TestFig12Digest pins Fig12 at the tiny scale (CHROME and N-CHROME at
// 4/8/16 cores) to a committed SHA-256. It is an oracle on the agent's
// reported numbers that a change to both the agent and its tests cannot
// pass. Regenerate with `go test ./internal/experiments -run Fig12Digest
// -update` only when a change is meant to move the figure.
func TestFig12Digest(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	var lines []string
	for _, rep := range Fig12(tinyScale()) {
		lines = append(lines, rep.ID+" "+reportDigest(rep))
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "fig12.sha256")
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
		t.Fatalf("Fig12 digest changed:\n got  %s want %s", got, want)
	}
}
