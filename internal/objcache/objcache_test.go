package objcache_test

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"chrome/internal/objcache"
)

// opRNG is SplitMix64, kept local so test streams are stable regardless of
// library RNG changes.
type opRNG struct{ s uint64 }

func (r *opRNG) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// valueFor builds a deterministic value for key index k: the size varies
// with the key and the bytes encode the key, so hits can be checked for
// serving the right object.
func valueFor(k int) []byte {
	v := make([]byte, 64+(uint64(k)*2654435761)%1024)
	for i := range v {
		v[i] = byte(k + i)
	}
	return v
}

// driveStream runs n cache-aside operations (Get, Set-on-miss, occasional
// Delete) over a fixed keyspace with a seeded op stream.
func driveStream(c *objcache.Cache, seed uint64, n, keys int) {
	r := opRNG{s: seed}
	for i := 0; i < n; i++ {
		k := int(r.next() % uint64(keys))
		key := fmt.Sprintf("k%04d", k)
		switch r.next() % 16 {
		case 0:
			c.Delete(key)
		default:
			if _, ok := c.Get(key); !ok {
				c.Set(key, valueFor(k))
			}
		}
	}
}

// snapshot probes every key in the keyspace and captures (presence, first
// byte, length) plus the counters — the observable state of the cache.
type snapshot struct {
	stats     objcache.Stats
	len       int
	sizeBytes int64
	present   []string
}

func snapshotOf(c *objcache.Cache, keys int) snapshot {
	s := snapshot{stats: c.Stats(), len: c.Len(), sizeBytes: c.SizeBytes()}
	for k := 0; k < keys; k++ {
		v, ok := c.Get(fmt.Sprintf("k%04d", k))
		if !ok {
			continue
		}
		s.present = append(s.present, fmt.Sprintf("k%04d:%d:%d", k, len(v), v[0]))
	}
	return s
}

// TestSeededReplayDeterministic replays one seeded request stream into two
// fresh single-shard caches per policy and requires byte-identical
// results: equal counters, equal live set, equal object contents. This is
// the service-side determinism gate: the whole cache is a pure function of
// (Config, request stream).
func TestSeededReplayDeterministic(t *testing.T) {
	for _, pol := range []string{"lru", "chrome"} {
		t.Run(pol, func(t *testing.T) {
			cfg := objcache.Config{Shards: 1, CapacityBytes: 96 << 10, Policy: pol, Seed: 42}
			run := func() snapshot {
				c := objcache.New(cfg)
				driveStream(c, 7, 20_000, 512)
				return snapshotOf(c, 512)
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("two replays of the same seeded stream diverged:\n%+v\nvs\n%+v", a, b)
			}
			if a.stats.Evictions == 0 {
				t.Fatalf("stream never evicted (cap too large to exercise the policy): %+v", a.stats)
			}
			if pol == "chrome" && a.stats.Bypasses == 0 {
				t.Logf("note: chrome policy never bypassed in this stream")
			}
		})
	}
}

// TestStatsConservation drives concurrent workers over a sharded cache and
// checks the conservation laws from the outside: the summed counters must
// balance against the live object count and the accounted bytes, and the
// per-shard counters must sum to the totals. A reader calls every
// whole-cache accessor while the writers run. Under -race this is the
// shard lock-discipline gate: a field touched without the shard lock is a
// reported race, and a second shard lock taken while one is held
// deadlocks the writers. Under -tags simcheck every operation additionally
// self-checks the shard ledger.
func TestStatsConservation(t *testing.T) {
	for _, pol := range []string{"lru", "chrome"} {
		t.Run(pol, func(t *testing.T) {
			c := objcache.New(objcache.Config{Shards: 8, CapacityBytes: 512 << 10, Policy: pol, Seed: 3})
			workers := runtime.GOMAXPROCS(0)
			if workers < 4 {
				workers = 4
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					driveStream(c, seed, 10_000, 2048)
				}(uint64(w) + 100)
			}
			done := make(chan struct{})
			readerDone := make(chan struct{})
			go func() {
				defer close(readerDone)
				for {
					select {
					case <-done:
						return
					default:
					}
					_, _, _ = c.Len(), c.SizeBytes(), c.Stats()
					_, _ = c.ShardStats(), c.PolicyName()
				}
			}()
			wg.Wait()
			close(done)
			<-readerDone

			st := c.Stats()
			if live := st.Admits - st.Evictions - st.Deletes; live != int64(c.Len()) {
				t.Errorf("object conservation broken: Admits-Evictions-Deletes=%d, Len=%d", live, c.Len())
			}
			if b := st.BytesAdmitted + st.BytesResized - st.BytesEvicted - st.BytesDeleted; b != c.SizeBytes() {
				t.Errorf("byte conservation broken: counters say %d, SizeBytes=%d", b, c.SizeBytes())
			}
			if st.Hits > st.Gets {
				t.Errorf("more hits than gets: %+v", st)
			}
			if st.Admits+st.Updates+st.Bypasses != st.Sets {
				t.Errorf("set outcomes do not partition Sets: %+v", st)
			}
			var sum objcache.Stats
			for _, ss := range c.ShardStats() {
				sum.Gets += ss.Gets
				sum.Sets += ss.Sets
				sum.Admits += ss.Admits
				sum.Evictions += ss.Evictions
			}
			if sum.Gets != st.Gets || sum.Sets != st.Sets || sum.Admits != st.Admits || sum.Evictions != st.Evictions {
				t.Errorf("shard stats do not sum to totals: %+v vs %+v", sum, st)
			}
			if st.Evictions == 0 {
				t.Errorf("concurrent stream never evicted; capacity too large to exercise the policy")
			}
		})
	}
}

// TestLRUEvictionOrder pins the baseline semantics: with the lru policy a
// single shard behaves as exact LRU over accounted bytes.
func TestLRUEvictionOrder(t *testing.T) {
	// Each object costs 1+3+64 = 68 bytes; capacity fits two.
	c := objcache.New(objcache.Config{Shards: 1, CapacityBytes: 140, Policy: "lru"})
	c.Set("a", []byte("one"))
	c.Set("b", []byte("two"))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before any eviction")
	}
	c.Set("c", []byte("tri")) // b is LRU now: a was touched after b's fill
	if _, ok := c.Get("b"); ok {
		t.Error("b survived; LRU should have evicted it")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a evicted; it was more recently touched than b")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c missing right after its fill")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", st.Evictions)
	}
}

// TestOversizeBypass pins that objects larger than a shard's capacity
// never enter the store, as fills or as updates.
func TestOversizeBypass(t *testing.T) {
	c := objcache.New(objcache.Config{Shards: 1, CapacityBytes: 256, Policy: "lru"})
	big := make([]byte, 512)
	c.Set("huge", big)
	if _, ok := c.Get("huge"); ok {
		t.Error("oversize object admitted")
	}
	c.Set("ok", []byte("fits"))
	c.Set("ok", big) // oversize update drops the resident object
	if _, ok := c.Get("ok"); ok {
		t.Error("oversize update left the object resident")
	}
	st := c.Stats()
	if st.Bypasses != 2 {
		t.Errorf("Bypasses = %d, want 2", st.Bypasses)
	}
	if c.Len() != 0 || c.SizeBytes() != 0 {
		t.Errorf("store not empty after oversize traffic: len=%d bytes=%d", c.Len(), c.SizeBytes())
	}
}

// TestDeleteAndResize pins the byte ledger across updates and deletes.
func TestDeleteAndResize(t *testing.T) {
	c := objcache.New(objcache.Config{Shards: 1, CapacityBytes: 1 << 20, Policy: "lru"})
	c.Set("k", make([]byte, 100))
	before := c.SizeBytes()
	c.Set("k", make([]byte, 300))
	if got := c.SizeBytes() - before; got != 200 {
		t.Errorf("resize delta = %d, want 200", got)
	}
	if !c.Delete("k") {
		t.Error("Delete of resident key reported absent")
	}
	if c.Delete("k") {
		t.Error("Delete of absent key reported resident")
	}
	if c.SizeBytes() != 0 {
		t.Errorf("bytes left after delete: %d", c.SizeBytes())
	}
	st := c.Stats()
	if st.Updates != 1 || st.BytesResized != 200 || st.Deletes != 1 {
		t.Errorf("ledger counters off: %+v", st)
	}
}

// TestPolicyName pins the report label plumbing.
func TestPolicyName(t *testing.T) {
	c := objcache.New(objcache.Config{Policy: "chrome", CapacityBytes: 1 << 20})
	if c.PolicyName() != "chrome" {
		t.Errorf("PolicyName = %q, want chrome", c.PolicyName())
	}
}
