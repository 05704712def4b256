package sim

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"chrome/internal/cache"
	"chrome/internal/chrome"
	"chrome/internal/mem"
	"chrome/internal/policy"
	"chrome/internal/prefetch"
	"chrome/internal/trace"
	"chrome/internal/workload"
)

// checkpointTestConfig is a 2-core hierarchy with both prefetcher kinds
// installed so checkpoints cover prefetch-table state.
func checkpointTestConfig() Config {
	cfg := ScaledConfig(2)
	cfg.L1Prefetcher = func() prefetch.Prefetcher { return prefetch.NewNextLine(1) }
	cfg.L2Prefetcher = func() prefetch.Prefetcher { return prefetch.NewStride(2) }
	return cfg
}

// checkpointRecording freezes one workload stream long enough for the test
// run window.
func checkpointRecording(t *testing.T, budget mem.Instr) *trace.Recording {
	t.Helper()
	p, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	return trace.RecordStream(p.New(0), budget)
}

func replayGens(rec *trace.Recording, cores int) []trace.Generator {
	gens := make([]trace.Generator, cores)
	for i := range gens {
		gens[i] = rec.Replayer(mem.AddrOf(uint64(i) << 28))
	}
	return gens
}

// TestCheckpointedResumeMatchesStraightRun is the correctness gate of the
// checkpoint subsystem: for every scheme class (stateless, RRIP counters,
// OPT-trained, RL agent), saving at an instruction boundary, restoring into
// a fresh identically-configured system, and running forward must produce a
// Result identical record-for-record to the uninterrupted run.
func TestCheckpointedResumeMatchesStraightRun(t *testing.T) {
	const warmup, measure = 6_000, 24_000
	rec := checkpointRecording(t, warmup+measure)
	cfg := checkpointTestConfig()

	schemes := []struct {
		name    string
		factory PolicyFactory
	}{
		{"LRU", func(sets, ways, cores int, _ func(mem.CoreID) bool) cache.Policy { return policy.NewLRU() }},
		{"SRRIP", func(sets, ways, cores int, _ func(mem.CoreID) bool) cache.Policy { return policy.NewSRRIP(sets, ways) }},
		{"Hawkeye", func(sets, ways, cores int, _ func(mem.CoreID) bool) cache.Policy {
			return policy.NewHawkeye(sets, ways, 256)
		}},
		{"CHROME", chromeFactory},
	}
	boundaries := []struct {
		name string
		at   mem.Instr
	}{
		{"mid-warmup", warmup / 2},
		{"mid-measure", warmup + measure/2},
	}

	for _, sc := range schemes {
		for _, bd := range boundaries {
			t.Run(sc.name+"/"+bd.name, func(t *testing.T) {
				straight := New(cfg, replayGens(rec, cfg.Cores), sc.factory)
				want := straight.Run(warmup, measure)

				// Run to the boundary and checkpoint.
				a := New(cfg, replayGens(rec, cfg.Cores), sc.factory)
				if bd.at <= warmup {
					a.RunPhaseTo(bd.at)
				} else {
					a.RunPhaseTo(warmup)
					a.BeginMeasurement()
					a.RunPhaseTo(bd.at)
				}
				var buf bytes.Buffer
				if err := a.SaveCheckpoint(&buf); err != nil {
					t.Fatalf("SaveCheckpoint: %v", err)
				}

				// Restore into a fresh system and run forward.
				b := New(cfg, replayGens(rec, cfg.Cores), sc.factory)
				if err := b.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
					t.Fatalf("LoadCheckpoint: %v", err)
				}
				if bd.at <= warmup {
					b.RunPhaseTo(warmup)
					b.BeginMeasurement()
				}
				b.RunPhaseTo(warmup + measure)
				got := b.Collect()

				if !reflect.DeepEqual(want, got) {
					t.Fatalf("resumed run diverged from straight run:\nstraight: %+v\nresumed:  %+v", want, got)
				}
				// For the RL agent, also require the internal learning state
				// to agree exactly, not just the externally visible Result.
				if sc.name == "CHROME" {
					wa := straight.LLC().Policy().(*chrome.Agent)
					ga := b.LLC().Policy().(*chrome.Agent)
					if wa.Stats() != ga.Stats() {
						t.Fatalf("agent stats diverged:\nstraight: %+v\nresumed:  %+v", wa.Stats(), ga.Stats())
					}
					if wa.QTable().Updates() != ga.QTable().Updates() {
						t.Fatalf("Q-table updates diverged: %d vs %d", wa.QTable().Updates(), ga.QTable().Updates())
					}
				}
			})
		}
	}
}

// TestCheckpointRoundTripThroughMeasurement saves after BeginMeasurement,
// so the restored run must carry the reset measurement-window counters.
func TestCheckpointRoundTripThroughMeasurement(t *testing.T) {
	const warmup, measure = 4_000, 12_000
	rec := checkpointRecording(t, warmup+measure)
	cfg := checkpointTestConfig()
	factory := func(sets, ways, cores int, _ func(mem.CoreID) bool) cache.Policy {
		return policy.NewSRRIP(sets, ways)
	}

	straight := New(cfg, replayGens(rec, cfg.Cores), factory)
	want := straight.Run(warmup, measure)

	a := New(cfg, replayGens(rec, cfg.Cores), factory)
	a.RunPhaseTo(warmup)
	a.BeginMeasurement()
	a.RunPhaseTo(warmup + measure/4)
	var buf bytes.Buffer
	if err := a.SaveCheckpoint(&buf); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	b := New(cfg, replayGens(rec, cfg.Cores), factory)
	if err := b.LoadCheckpoint(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	b.RunPhaseTo(warmup + measure)
	if got := b.Collect(); !reflect.DeepEqual(want, got) {
		t.Fatalf("resumed run diverged:\nstraight: %+v\nresumed:  %+v", want, got)
	}
}

func TestCheckpointRejectsMismatchedScheme(t *testing.T) {
	rec := checkpointRecording(t, 2_000)
	cfg := checkpointTestConfig()
	a := New(cfg, replayGens(rec, cfg.Cores), func(sets, ways, cores int, _ func(mem.CoreID) bool) cache.Policy {
		return policy.NewLRU()
	})
	a.RunPhaseTo(1_000)
	var buf bytes.Buffer
	if err := a.SaveCheckpoint(&buf); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	b := New(cfg, replayGens(rec, cfg.Cores), func(sets, ways, cores int, _ func(mem.CoreID) bool) cache.Policy {
		return policy.NewSRRIP(sets, ways)
	})
	if err := b.LoadCheckpoint(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("loading an LRU checkpoint into an SRRIP system: %v, want ErrBadCheckpoint", err)
	}
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	rec := checkpointRecording(t, 2_000)
	cfg := checkpointTestConfig()
	factory := func(sets, ways, cores int, _ func(mem.CoreID) bool) cache.Policy { return policy.NewLRU() }
	a := New(cfg, replayGens(rec, cfg.Cores), factory)
	a.RunPhaseTo(1_000)
	var buf bytes.Buffer
	if err := a.SaveCheckpoint(&buf); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	valid := buf.Bytes()

	cases := map[string][]byte{
		"empty":          {},
		"short header":   valid[:10],
		"truncated":      valid[:len(valid)-7],
		"bad magic":      append([]byte("NOPE"), valid[4:]...),
		"bad version":    append(append([]byte{}, valid[:4]...), append([]byte{99}, valid[5:]...)...),
		"flipped middle": flipByte(valid, len(valid)/2),
		"flipped last":   flipByte(valid, len(valid)-1),
	}
	for name, data := range cases {
		b := New(cfg, replayGens(rec, cfg.Cores), factory)
		if err := b.LoadCheckpoint(bytes.NewReader(data)); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: %v, want ErrBadCheckpoint", name, err)
		}
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte{}, b...)
	out[i] ^= 0x40
	return out
}

// FuzzReadCheckpoint hammers LoadCheckpoint with mutated checkpoint bytes:
// it must either restore cleanly or return an error — never panic. Restores
// land in a throwaway system, so partial application on corrupt payloads
// (possible once the checksum is forged along with the payload) is fine.
func FuzzReadCheckpoint(f *testing.F) {
	p, err := workload.ByName("mcf")
	if err != nil {
		f.Fatal(err)
	}
	rec := trace.RecordStream(p.New(0), 2_000)
	cfg := ScaledConfig(1)
	cfg.L1Sets, cfg.L1Ways = 4, 2
	cfg.L2Sets, cfg.L2Ways = 8, 2
	cfg.LLCSets, cfg.LLCWays = 16, 4
	newSys := func() *System {
		return New(cfg, []trace.Generator{rec.Replayer(0)}, lruFactory)
	}
	seedSys := newSys()
	seedSys.RunPhaseTo(1_000)
	var seed bytes.Buffer
	if err := seedSys.SaveCheckpoint(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte("CHKP"))
	f.Add(seed.Bytes()[:24])

	f.Fuzz(func(t *testing.T, data []byte) {
		sys := newSys()
		_ = sys.LoadCheckpoint(bytes.NewReader(data))
	})
}

func TestCheckpointRefusesLiveGenerators(t *testing.T) {
	p, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	cfg := checkpointTestConfig()
	sys := New(cfg, []trace.Generator{p.New(0), p.New(1)}, lruFactory)
	sys.RunPhaseTo(1_000)
	if err := sys.SaveCheckpoint(&bytes.Buffer{}); err == nil {
		t.Fatal("SaveCheckpoint over live generators succeeded, want refusal")
	}
}

func TestCheckpointRefusesReuseTrackers(t *testing.T) {
	rec := checkpointRecording(t, 2_000)
	cfg := checkpointTestConfig()
	sys := New(cfg, replayGens(rec, cfg.Cores), lruFactory)
	sys.SetEvictionTracker(cache.NewReuseTracker(0))
	sys.RunPhaseTo(1_000)
	if err := sys.SaveCheckpoint(&bytes.Buffer{}); err == nil {
		t.Fatal("SaveCheckpoint with a reuse tracker installed succeeded, want refusal")
	}
}
