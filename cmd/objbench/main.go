// Command objbench drives internal/objcache with a closed-loop keyed
// workload — Zipf-skewed point reads with cache-aside fills, periodic
// streaming scans of large never-re-referenced objects, and popularity
// bursts that rotate the hot set — and reports hit rate, bytes-hit rate,
// throughput, and operation latency percentiles. It is the service-side
// analogue of cmd/experiments: the same CHROME agent that picks cache
// blocks in the simulator picks objects here, and this harness is how its
// win (or loss) against plain LRU is measured honestly.
//
// Usage:
//
//	go run ./cmd/objbench -policy chrome -requests 400000 -capmb 64
//
// The run is seeded end to end: equal flags give equal per-worker request
// streams (cache contents under -workers > 1 still depend on goroutine
// interleaving; use -workers 1 for byte-identical replays).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"chrome/internal/mem"
	"chrome/internal/objcache"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

type config struct {
	policy   string
	shards   int
	capMB    int64
	requests int
	keys     int
	theta    float64
	workers  int
	seed     uint64

	scanEvery  int
	scanLen    int
	scanKB     int
	burstEvery int
}

func run(args []string) int {
	fs := flag.NewFlagSet("objbench", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.policy, "policy", "chrome", "cache policy: lru or chrome")
	fs.IntVar(&cfg.shards, "shards", 8, "shard count (power of two)")
	fs.Int64Var(&cfg.capMB, "capmb", 64, "total cache capacity in MiB")
	fs.IntVar(&cfg.requests, "requests", 200_000, "total requests across all workers")
	fs.IntVar(&cfg.keys, "keys", 100_000, "point-read keyspace size")
	fs.Float64Var(&cfg.theta, "zipf", 0.99, "Zipf skew of the point-read popularity")
	fs.IntVar(&cfg.workers, "workers", runtime.GOMAXPROCS(0), "concurrent closed-loop workers")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.IntVar(&cfg.scanEvery, "scan-every", 5_000, "per-worker requests between scans (0 disables)")
	fs.IntVar(&cfg.scanLen, "scan-len", 500, "objects per scan")
	fs.IntVar(&cfg.scanKB, "scan-kb", 16, "scan object size in KiB")
	fs.IntVar(&cfg.burstEvery, "burst-every", 50_000, "per-worker requests between hot-set rotations (0 disables)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.workers < 1 {
		cfg.workers = 1
	}

	c := objcache.New(objcache.Config{
		Shards:        cfg.shards,
		CapacityBytes: cfg.capMB << 20,
		Policy:        cfg.policy,
		Seed:          cfg.seed,
	})

	zipf := newZipfTable(cfg.keys, cfg.theta)
	perWorker := cfg.requests / cfg.workers
	results := make([]workerResult, cfg.workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = driveWorker(c, cfg, zipf, w, perWorker)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var total workerResult
	for _, r := range results {
		total.ops += r.ops
		total.hits += r.hits
		total.bytesHit += r.bytesHit
		total.bytesAsked += r.bytesAsked
		total.lat = append(total.lat, r.lat...)
	}
	sort.Slice(total.lat, func(i, j int) bool { return total.lat[i] < total.lat[j] })

	st := c.Stats()
	fmt.Printf("objbench: policy=%s shards=%d cap=%dMiB requests=%d keys=%d zipf=%.2f workers=%d seed=%d\n",
		c.PolicyName(), cfg.shards, cfg.capMB, total.ops, cfg.keys, cfg.theta, cfg.workers, cfg.seed)
	fmt.Printf("  hit rate        %.4f (%d/%d)\n", ratio(total.hits, total.ops), total.hits, total.ops)
	fmt.Printf("  bytes-hit rate  %.4f (%s/%s)\n", ratio(total.bytesHit, total.bytesAsked), mib(total.bytesHit), mib(total.bytesAsked))
	fmt.Printf("  throughput      %.0f ops/s (%.2fs wall)\n", float64(total.ops)/elapsed.Seconds(), elapsed.Seconds())
	fmt.Printf("  latency         p50=%s p95=%s p99=%s\n", pct(total.lat, 50), pct(total.lat, 95), pct(total.lat, 99))
	fmt.Printf("  store           admits=%d updates=%d bypasses=%d evictions=%d live=%d (%s)\n",
		st.Admits, st.Updates, st.Bypasses, st.Evictions, c.Len(), mib(c.SizeBytes()))
	return 0
}

type workerResult struct {
	ops        int64
	hits       int64
	bytesHit   int64
	bytesAsked int64
	lat        []time.Duration
}

// driveWorker runs one closed-loop client: Zipf point reads with
// cache-aside fills, a streaming scan every scanEvery requests, and a
// hot-set rotation every burstEvery requests.
func driveWorker(c *objcache.Cache, cfg config, zipf *zipfTable, w, requests int) workerResult {
	rng := mem.Mix64(cfg.seed ^ (uint64(w)+1)*0x9E3779B97F4A7C15)
	next := func() uint64 {
		rng = mem.Mix64(rng)
		return rng
	}
	res := workerResult{lat: make([]time.Duration, 0, requests+requests/8)}
	offset := 0
	scanSeq := w * 1_000_000 // disjoint per-worker scan key ranges
	op := func(key string, size int) {
		t0 := time.Now()
		v, ok := c.Get(key)
		if ok {
			res.hits++
			res.bytesHit += int64(len(v))
			res.bytesAsked += int64(len(v))
		} else {
			res.bytesAsked += int64(size)
			c.Set(key, make([]byte, size))
		}
		res.lat = append(res.lat, time.Since(t0))
		res.ops++
	}
	for i := 0; i < requests; i++ {
		if cfg.burstEvery > 0 && i > 0 && i%cfg.burstEvery == 0 {
			// Popularity burst: the rank→key mapping rotates a quarter of
			// the keyspace, so yesterday's cold keys become today's hot
			// ones and the policy has to re-learn.
			offset += cfg.keys / 4
		}
		if cfg.scanEvery > 0 && i > 0 && i%cfg.scanEvery == 0 {
			// Streaming scan: fresh large objects, read once, never again.
			for j := 0; j < cfg.scanLen; j++ {
				op(fmt.Sprintf("s%09d", scanSeq), cfg.scanKB<<10)
				scanSeq++
			}
		}
		rank := zipf.rank(next())
		k := (rank + offset) % cfg.keys
		size := 64 + int((uint64(k)*2654435761)%4032)
		op(fmt.Sprintf("k%08d", k), size)
	}
	return res
}

// zipfTable draws ranks with P(rank=i) ∝ 1/(i+1)^theta via the inverse
// CDF over cumulative weights (binary search per draw). Built once and
// shared read-only across workers.
type zipfTable struct {
	cum   []float64
	total float64
}

func newZipfTable(n int, theta float64) *zipfTable {
	t := &zipfTable{cum: make([]float64, n)}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
		t.cum[i] = sum
	}
	t.total = sum
	return t
}

func (t *zipfTable) rank(r uint64) int {
	// 53-bit mantissa draw in [0, total).
	u := float64(r>>11) / (1 << 53) * t.total
	return sort.SearchFloat64s(t.cum, u)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func mib(b int64) string {
	return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
}

func pct(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := len(sorted) * p / 100
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
