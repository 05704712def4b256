package cpu

import (
	"testing"

	"chrome/internal/mem"
	"chrome/internal/trace"
)

// scripted replays a fixed record slice in a loop.
type scripted struct {
	recs []trace.Record
	i    int
}

func (s *scripted) Next() trace.Record {
	r := s.recs[s.i%len(s.recs)]
	s.i++
	return r
}
func (s *scripted) Reset()       { s.i = 0 }
func (s *scripted) Name() string { return "scripted" }

// fixedMem returns a constant latency for every access.
func fixedMem(lat mem.Cycle) MemFunc {
	return func(mem.CoreID, trace.Record, mem.Cycle) mem.Cycle { return lat }
}

func TestBandwidthBound(t *testing.T) {
	// All 1-cycle instructions: IPC should approach the width.
	gen := &scripted{recs: []trace.Record{{PC: 1, Addr: 0, Gap: 5}}} // 6 instr/record
	c := New(0, Config{Width: 6, ROB: 512}, gen, fixedMem(1))
	c.BeginWindow()
	for c.Instructions() < 60000 {
		c.Step()
	}
	if ipc := c.IPC(); ipc < 5.5 || ipc > 6.01 {
		t.Fatalf("IPC = %v, want ~6 (width-bound)", ipc)
	}
}

func TestIndependentLoadsOverlap(t *testing.T) {
	// Independent loads with latency L: the ROB lets many overlap, so IPC
	// must be far above the serialized bound 1/L.
	gen := &scripted{recs: []trace.Record{{PC: 1, Addr: 0}}}
	const lat = 200
	c := New(0, Config{Width: 6, ROB: 512}, gen, fixedMem(lat))
	c.BeginWindow()
	for c.Instructions() < 20000 {
		c.Step()
	}
	// Little's law bound: ROB/lat = 512/200 = 2.56 IPC.
	if ipc := c.IPC(); ipc < 1.5 {
		t.Fatalf("IPC = %v, want ROB-limited overlap (> 1.5)", ipc)
	}
}

// TestDependentLoadsSerialize runs a chain of dependent loads at two
// memory latencies: each load waits for the previous one, so IPC is about
// 1/latency, and the slower memory gives the lower IPC.
func TestDependentLoadsSerialize(t *testing.T) {
	ipc := func(lat mem.Cycle) float64 {
		gen := &scripted{recs: []trace.Record{{PC: 1, Addr: 0, Dependent: true}}}
		c := New(0, Config{Width: 6, ROB: 512}, gen, fixedMem(lat))
		c.BeginWindow()
		for c.Instructions() < 2000 {
			c.Step()
		}
		got := c.IPC()
		if got > 1.5/float64(lat) {
			t.Fatalf("latency %d: IPC = %v, want about %v (serialized chain)", lat, got, 1/float64(lat))
		}
		return got
	}
	if fast, slow := ipc(100), ipc(400); slow >= fast {
		t.Fatalf("IPC at latency 400 (%v) should be below latency 100 (%v)", slow, fast)
	}
}

func TestROBLimitsOverlap(t *testing.T) {
	// With a tiny ROB, independent loads cannot overlap as much.
	gen := &scripted{recs: []trace.Record{{PC: 1, Addr: 0}}}
	const lat = 100
	small := New(0, Config{Width: 6, ROB: 8}, gen, fixedMem(lat))
	small.BeginWindow()
	for small.Instructions() < 5000 {
		small.Step()
	}
	gen2 := &scripted{recs: []trace.Record{{PC: 1, Addr: 0}}}
	big := New(0, Config{Width: 6, ROB: 256}, gen2, fixedMem(lat))
	big.BeginWindow()
	for big.Instructions() < 5000 {
		big.Step()
	}
	if small.IPC()*2 > big.IPC() {
		t.Fatalf("ROB=8 IPC %v should be far below ROB=256 IPC %v", small.IPC(), big.IPC())
	}
}

// TestROBSlotWraps pins the ROB-full stall over many laps of the ring:
// with width to spare, independent loads of a fixed latency reach memory
// in batches of exactly ROB, each waiting for the batch before it to
// retire.
func TestROBSlotWraps(t *testing.T) {
	const rob, lat = 8, 100
	var cycles []mem.Cycle
	gen := &scripted{recs: []trace.Record{{PC: 1, Addr: 0}}}
	c := New(0, Config{Width: 64, ROB: rob}, gen, func(_ mem.CoreID, _ trace.Record, cycle mem.Cycle) mem.Cycle {
		cycles = append(cycles, cycle)
		return lat
	})
	for i := 0; i < 10*rob; i++ {
		c.Step()
	}
	for i, got := range cycles {
		if want := mem.CycleOf(uint64(i/rob) * lat); got != want {
			t.Fatalf("load %d reached memory at cycle %d, want %d (ROB %d, latency %d)", i, got, want, rob, lat)
		}
	}
}

func TestStoresDoNotStallCommit(t *testing.T) {
	gen := &scripted{recs: []trace.Record{{PC: 1, Addr: 0, Write: true}}}
	c := New(0, Config{Width: 6, ROB: 64}, gen, fixedMem(500))
	c.BeginWindow()
	for c.Instructions() < 5000 {
		c.Step()
	}
	if ipc := c.IPC(); ipc < 0.9 {
		t.Fatalf("IPC = %v; stores must retire via the store buffer", ipc)
	}
}

func TestMemFuncSeesIssueCycles(t *testing.T) {
	var cycles []mem.Cycle
	gen := &scripted{recs: []trace.Record{{PC: 1, Addr: 0, Gap: 2}}}
	c := New(0, Config{Width: 1, ROB: 64}, gen, func(_ mem.CoreID, _ trace.Record, cycle mem.Cycle) mem.Cycle {
		cycles = append(cycles, cycle)
		return 1
	})
	for i := 0; i < 10; i++ {
		c.Step()
	}
	for i := 1; i < len(cycles); i++ {
		if cycles[i] <= cycles[i-1] {
			t.Fatalf("non-monotonic access cycles: %v", cycles)
		}
	}
}

func TestAvgLoadLatency(t *testing.T) {
	gen := &scripted{recs: []trace.Record{{PC: 1, Addr: 0}}}
	c := New(0, Config{Width: 6, ROB: 64}, gen, fixedMem(42))
	for i := 0; i < 100; i++ {
		c.Step()
	}
	if got := c.AvgLoadLatency(); got != 42 {
		t.Fatalf("avg load latency %v, want 42", got)
	}
	empty := New(1, DefaultConfig(), &scripted{recs: []trace.Record{{}}}, fixedMem(1))
	if empty.AvgLoadLatency() != 0 {
		t.Fatal("no loads yet: avg latency should be 0")
	}
}

func TestWindowAccounting(t *testing.T) {
	gen := &scripted{recs: []trace.Record{{PC: 1, Addr: 0, Gap: 1}}}
	c := New(0, Config{Width: 2, ROB: 32}, gen, fixedMem(5))
	for c.Instructions() < 1000 {
		c.Step()
	}
	c.BeginWindow()
	if c.WindowInstructions() != 0 {
		t.Fatal("window should start empty")
	}
	for c.Instructions() < 2000 {
		c.Step()
	}
	if c.WindowInstructions() < 1000 {
		t.Fatalf("window instructions = %d, want >= 1000", c.WindowInstructions())
	}
	if c.WindowCycles() == 0 || c.IPC() <= 0 {
		t.Fatal("window cycles/IPC not accounted")
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid config")
		}
	}()
	New(0, Config{Width: 0, ROB: 1}, &scripted{recs: []trace.Record{{}}}, fixedMem(1))
}
