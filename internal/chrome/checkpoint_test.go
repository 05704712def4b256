package chrome

import (
	"bytes"
	"errors"
	"testing"

	"chrome/internal/cache"
	"chrome/internal/mem"
)

func trainAgent(t testing.TB, cfg Config, n int) *Agent {
	t.Helper()
	a, c := newTestAgent(t, cfg, 16, 2)
	for i := 0; i < n; i++ {
		addr := mem.Addr((i % 64) * 64)
		if i%2 == 0 {
			addr = mem.Addr(1<<22 + i*64)
		}
		c.Access(mem.Access{PC: mem.PCOf(uint64(i % 4)), Addr: addr, Type: mem.Load, Cycle: mem.CycleOf(uint64(i))})
	}
	return a
}

func TestCheckpointRoundTrip(t *testing.T) {
	cfg := testConfig()
	trained := trainAgent(t, cfg, 40000)
	var buf bytes.Buffer
	if err := trained.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}

	fresh := New(cfg, 16, 2)
	if err := fresh.LoadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	// The restored table must agree with the trained one on every probed
	// state-action Q-value.
	for i := uint64(0); i < 500; i++ {
		st := NewState(mem.Mix64(i), i%64)
		for a := Action(0); a < NumActions; a++ {
			if trained.QTable().Q(st, a) != fresh.QTable().Q(st, a) {
				t.Fatalf("Q mismatch after restore at state %d action %v", i, a)
			}
		}
	}
	// The update count is the loading run's own, and it has made none.
	if got := fresh.QTable().Updates(); got != 0 {
		t.Fatalf("a loaded table reports %d updates, want 0", got)
	}
}

// TestWarmStartCountsOnlyLoadingRun drives one fixed hit/miss stream
// through a fresh agent and through one warm-started from a trained
// checkpoint. A SARSA update fires on each EQ overflow, which the stream
// alone decides, so both must report the same updates and UPKSA: the
// saving run's updates are not the loading run's.
func TestWarmStartCountsOnlyLoadingRun(t *testing.T) {
	cfg := testConfig()
	var buf bytes.Buffer
	if err := trainAgent(t, cfg, 40000).SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	cold, warm := New(cfg, 16, 2), New(cfg, 16, 2)
	if err := warm.LoadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	blocks := make([]cache.Block, 2)
	for i := 0; i < 20000; i++ {
		set := mem.SetIdx(i % 16)
		acc := mem.Access{PC: mem.PCOf(uint64(i % 7)), Addr: mem.Addr(i % 97 * 64), Type: mem.Load, Cycle: mem.CycleOf(uint64(i))}
		for _, a := range []*Agent{cold, warm} {
			if i%3 == 0 {
				a.OnHit(set, i%2, blocks, acc)
			} else {
				a.Victim(set, blocks, acc)
			}
		}
	}
	if cold.QTable().Updates() == 0 {
		t.Fatal("the stream drove no SARSA update")
	}
	if w, c := warm.QTable().Updates(), cold.QTable().Updates(); w != c {
		t.Fatalf("warm-started agent reports %d updates, a fresh one %d over the same stream", w, c)
	}
	if w, c := warm.UPKSA(), cold.UPKSA(); w != c {
		t.Fatalf("warm-started agent reports UPKSA %v, a fresh one %v over the same stream", w, c)
	}
}

func TestCheckpointWarmStartBehaviour(t *testing.T) {
	cfg := testConfig()
	trained := trainAgent(t, cfg, 40000)
	var buf bytes.Buffer
	if err := trained.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	warm := New(cfg, 16, 2)
	if err := warm.LoadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	// A warm-started agent must act on the learned policy immediately: its
	// first decisions match the trained agent's current argmax.
	c := cache.New(cache.Config{Name: "LLC", Sets: 16, Ways: 2}, warm)
	c.Access(mem.Access{PC: 1, Addr: 1 << 23, Type: mem.Load, Cycle: 1})
	if warm.Stats().Decisions != 1 {
		t.Fatal("warm agent made no decision")
	}
}

func TestCheckpointShapeMismatch(t *testing.T) {
	cfg := testConfig()
	trained := trainAgent(t, cfg, 5000)
	var buf bytes.Buffer
	if err := trained.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	other := testConfig()
	other.StateFeatures = []FeatureKind{FeatPCSignature}
	mismatched := New(other, 16, 2)
	if err := mismatched.LoadCheckpoint(&buf); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("err = %v, want ErrBadCheckpoint", err)
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	a := New(testConfig(), 16, 2)
	for _, data := range [][]byte{{}, []byte("XXXXXXXXXXXX"), append([]byte("CHQT"), 9, 2, 4, 11)} {
		if err := a.LoadCheckpoint(bytes.NewReader(data)); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("data %q: err = %v, want ErrBadCheckpoint", data, err)
		}
	}
}

// TestFailedLoadLeavesAgentUnchanged loads a checkpoint cut 10 bytes short,
// inside its last partial, into a fresh agent: the load must fail with
// ErrBadCheckpoint and leave the agent's table exactly as it was, its
// update counter and every Q-value.
func TestFailedLoadLeavesAgentUnchanged(t *testing.T) {
	cfg := testConfig()
	var trained bytes.Buffer
	if err := trainAgent(t, cfg, 5000).SaveCheckpoint(&trained); err != nil {
		t.Fatal(err)
	}
	a := New(cfg, 16, 2)
	var before bytes.Buffer
	if err := a.SaveCheckpoint(&before); err != nil {
		t.Fatal(err)
	}
	short := trained.Bytes()[:trained.Len()-10]
	if err := a.LoadCheckpoint(bytes.NewReader(short)); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("err = %v, want ErrBadCheckpoint", err)
	}
	if got := a.QTable().Updates(); got != 0 {
		t.Fatalf("a failed load moved the update counter to %d", got)
	}
	var after bytes.Buffer
	if err := a.SaveCheckpoint(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after.Bytes(), before.Bytes()) {
		t.Fatal("a failed load changed the agent's Q-table")
	}
}

// FuzzLoadCheckpoint checks the CHQT reader's contract on arbitrary bytes,
// the one on-disk input the program reads: a malformed input yields an
// error wrapping ErrBadCheckpoint, never a panic or a bare error, and
// leaves the agent's table as a fresh agent's; an accepted input saves
// back as exactly the bytes the reader consumed (a prefix of the input:
// the reader stops after the last partial), but for the update count,
// which is the loading table's own (0). The table has one feature, so a
// whole valid checkpoint is 64 KiB of partials behind 16 bytes of header
// and count. The seeds are such a checkpoint, a truncation of it, and a
// copy whose header gives 2 sub-tables.
func FuzzLoadCheckpoint(f *testing.F) {
	cfg := testConfig()
	cfg.StateFeatures = []FeatureKind{FeatPCSignature}
	var buf bytes.Buffer
	if err := trainAgent(f, cfg, 2000).SaveCheckpoint(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	otherShape := bytes.Clone(valid)
	otherShape[6] = 2 // the SubTables byte
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(otherShape)
	var fresh bytes.Buffer
	if err := New(cfg, 16, 2).SaveCheckpoint(&fresh); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		a := New(cfg, 16, 2)
		var out bytes.Buffer
		if err := a.LoadCheckpoint(bytes.NewReader(data)); err != nil {
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("LoadCheckpoint error does not wrap ErrBadCheckpoint: %v", err)
			}
			if err := a.SaveCheckpoint(&out); err != nil {
				t.Fatalf("saving after a failed load: %v", err)
			}
			if !bytes.Equal(out.Bytes(), fresh.Bytes()) {
				t.Fatal("a failed load changed the agent's Q-table")
			}
			return
		}
		if err := a.SaveCheckpoint(&out); err != nil {
			t.Fatalf("saving an accepted checkpoint: %v", err)
		}
		if out.Len() > len(data) {
			t.Fatalf("accepted %d input bytes, but saved %d", len(data), out.Len())
		}
		want := bytes.Clone(data[:out.Len()])
		clear(want[8:16]) // the update count
		if !bytes.Equal(out.Bytes(), want) {
			t.Fatalf("accepted %d input bytes, but the %d saved bytes are not their prefix (update count aside)", len(data), out.Len())
		}
	})
}
