package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"chrome/internal/mem"
	"chrome/internal/objcache"
)

// The objcache-scan workload: closed-loop clients doing Zipf point reads
// with cache-aside fills, a streaming scan of large objects every
// objScanEvery requests, and a hot-set rotation every objRotateEvery.
const (
	objShards      = 2
	objCapacity    = 32 << 20
	objClients     = 2
	objKeys        = 100_000
	objTheta       = 0.99
	objScanEvery   = 5_000
	objScanLen     = 500
	objScanSize    = 16 << 10
	objRotateEvery = 50_000
	// objScanRing scan keys per client are reused cyclically. The ring
	// holds 16x the scan objects the whole cache could, so a scan object
	// is long evicted before its key comes round again: scans read fresh
	// data without a key being made per operation.
	objScanRing = 16_384
	objFillOps  = 500_000
	objRepOps   = 2_000_000
	// objTapeBytes of seeded random bytes back every value: each key's
	// value is a window of the tape at a key-derived offset.
	objTapeBytes = 4 << 20
)

// objBench owns the cache, the preallocated keys and values, and the
// clients, whose request streams continue from one repetition to the next.
type objBench struct {
	c    *objcache.Cache
	keys []string
	// vals are the values stored, windows of one tape; want are the same
	// windows of a separate pristine copy, against which every hit is
	// checked.
	vals, want [][]byte
	zipf       *zipfTable
	clients    []*objClient
	inputS     float64 // host seconds spent making keys and values
	// Client-side totals over the process, which the cache's own Stats
	// must match.
	gets, hits, sets int64
}

// objClient is one closed-loop client: it sends its next request only
// when the previous one has completed.
type objClient struct {
	id     int
	rng    uint64
	n      int // requests issued, which schedule scans and rotations
	offset int // hot-set rotation of the rank-to-key map
	scan   int // next slot of the client's scan-key ring

	// Counters of the current batch.
	ops, gets, hits, sets, bad int64

	// timed makes the client time every Get and Set (traced runs only).
	timed          bool
	lat            []uint32 // per-operation client-side latency, ns
	getNs, setNs   int64
	getCnt, setCnt int64
}

func setupObj(o options, l *ledger) (bench, error) {
	start := time.Now()
	b := &objBench{
		c: objcache.New(objcache.Config{
			Shards: objShards, CapacityBytes: objCapacity, Policy: "chrome", Seed: o.seed,
		}),
		zipf: newZipfTable(objKeys, objTheta),
	}
	tape := make([]byte, objTapeBytes+objScanSize)
	x := o.seed
	for i := 0; i < len(tape); i += 8 {
		x = mem.Mix64(x + 0x9E3779B97F4A7C15)
		binary.LittleEndian.PutUint64(tape[i:], x)
	}
	pristine := bytes.Clone(tape)
	n := objKeys + objClients*objScanRing
	b.keys = make([]string, n)
	b.vals = make([][]byte, n)
	b.want = make([][]byte, n)
	for k := 0; k < n; k++ {
		size := objScanSize
		if k < objKeys {
			b.keys[k] = fmt.Sprintf("k%08d", k)
			size = 64 + int((uint64(k)*2654435761)%4032)
		} else {
			s := k - objKeys
			b.keys[k] = fmt.Sprintf("s%d-%05d", s/objScanRing, s%objScanRing)
		}
		off := int(mem.Mix64(uint64(k)^o.seed)%(objTapeBytes/8)) * 8
		b.vals[k] = tape[off : off+size : off+size]
		b.want[k] = pristine[off : off+size]
	}
	for i := 0; i < objClients; i++ {
		b.clients = append(b.clients, &objClient{id: i, rng: mem.Mix64(o.seed ^ uint64(i+1)*0x9E3779B97F4A7C15)})
	}
	b.inputS = time.Since(start).Seconds()
	b.batch(l, objFillOps/objClients, b.clients)
	return b, nil
}

func (b *objBench) rep(l *ledger) float64 {
	return float64(b.batch(l, objRepOps/objClients, b.clients)) / 1e6
}

// batch runs each client for at least quota operations concurrently,
// checks every hit's value and the cache's counters, and returns the
// operations done.
func (b *objBench) batch(l *ledger, quota int64, clients []*objClient) int64 {
	var wg sync.WaitGroup
	for _, c := range clients {
		c.ops, c.gets, c.hits, c.sets, c.bad = 0, 0, 0, 0, 0
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(b, quota)
		}()
	}
	wg.Wait()
	var ops int64
	for _, c := range clients {
		ops += c.ops
		b.gets += c.gets
		b.hits += c.hits
		b.sets += c.sets
		for i := int64(0); i < c.bad; i++ {
			l.fail("objcache-scan: client %d got a hit whose bytes differ from the key's value", c.id)
		}
	}
	l.attempt(ops)
	b.checkStats(l)
	return ops
}

// checkStats holds the cache's counters to the clients' own: equal Gets,
// Hits and Sets, and every Set admitted, updated or bypassed.
func (b *objBench) checkStats(l *ledger) {
	st := b.c.Stats()
	if st.Gets != b.gets || st.Hits != b.hits || st.Sets != b.sets {
		l.fail("objcache-scan: cache counts gets/hits/sets %d/%d/%d, clients %d/%d/%d",
			st.Gets, st.Hits, st.Sets, b.gets, b.hits, b.sets)
	}
	if st.Admits+st.Updates+st.Bypasses != st.Sets {
		l.fail("objcache-scan: admits %d + updates %d + bypasses %d != sets %d",
			st.Admits, st.Updates, st.Bypasses, st.Sets)
	}
}

// valid reports whether a hit on key k served the key's value.
func (b *objBench) valid(k int, v []byte) bool { return bytes.Equal(v, b.want[k]) }

func (c *objClient) run(b *objBench, quota int64) {
	for c.ops < quota {
		if c.n > 0 && c.n%objRotateEvery == 0 {
			// The rank-to-key map rotates a quarter of the key space:
			// cold keys turn hot and the policy has to re-learn.
			c.offset += objKeys / 4
		}
		if c.n > 0 && c.n%objScanEvery == 0 {
			base := objKeys + c.id*objScanRing
			for j := 0; j < objScanLen; j++ {
				c.op(b, base+c.scan)
				c.scan = (c.scan + 1) % objScanRing
			}
		}
		c.rng = mem.Mix64(c.rng)
		c.op(b, (b.zipf.rank(c.rng)+c.offset)%objKeys)
		c.n++
	}
}

// op reads key k and, on a miss, fills it (cache-aside).
func (c *objClient) op(b *objBench, k int) {
	c.ops++
	c.gets++
	key := b.keys[k]
	if !c.timed {
		v, ok := b.c.Get(key)
		if ok {
			c.hits++
			if !b.valid(k, v) {
				c.bad++
			}
			return
		}
		b.c.Set(key, b.vals[k])
		c.sets++
		return
	}
	start := time.Now()
	v, ok := b.c.Get(key)
	got := time.Now()
	c.getNs += int64(got.Sub(start))
	c.getCnt++
	end := got
	if !ok {
		b.c.Set(key, b.vals[k])
		end = time.Now()
		c.setNs += int64(end.Sub(got))
		c.setCnt++
		c.sets++
	}
	c.lat = append(c.lat, uint32(min(end.Sub(start), math.MaxUint32)))
	if ok {
		c.hits++
		if !b.valid(k, v) {
			c.bad++
		}
	}
}

// layers runs one repetition with every Get and Set timed, then an
// untimed one with both clients and one with a single client for the
// scaling ratio.
func (b *objBench) layers(l *ledger, t *tracer, m map[string]float64) float64 {
	quota := int64(objRepOps / objClients)
	before := b.c.Stats()
	hits0, gets0 := b.hits, b.gets
	for _, c := range b.clients {
		c.timed = true
		c.lat = make([]uint32, 0, quota+objScanLen)
	}
	start := time.Now()
	b.batch(l, quota, b.clients)
	traced := time.Since(start).Seconds()
	rep := t.span("traced-rep", start)
	after := b.c.Stats()

	var lat []uint32
	var get, set probe
	for _, c := range b.clients {
		c.timed = false
		lat = append(lat, c.lat...)
		c.lat = nil
		get.calls += uint64(c.getCnt)
		get.ns += c.getNs
		set.calls += uint64(c.setCnt)
		set.ns += c.setNs
	}
	get.sampled, set.sampled = get.calls, set.calls
	slices.Sort(lat)
	us := func(p float64) float64 { return max(0, float64(percentile(lat, p))-t.timerNs) / 1e3 }
	m["objcache.p50_us"] = us(50)
	m["objcache.p99_us"] = us(min(99, tailPercentile(len(lat))))
	m["objcache.get.calls"] = float64(get.calls)
	m["objcache.get.ns"] = get.perCall(t.timerNs)
	m["objcache.set.calls"] = float64(set.calls)
	m["objcache.set.ns"] = set.perCall(t.timerNs)
	t.layer(rep, "objcache.get", &get)
	t.layer(rep, "objcache.set", &set)
	m["objcache.hit_rate"] = ratio(b.hits-hits0, b.gets-gets0)
	m["objcache.bypass_ratio"] = ratio(after.Bypasses-before.Bypasses, after.Sets-before.Sets)
	m["objcache.evictions"] = float64(after.Evictions - before.Evictions)
	m["workload.inputs_s"] = b.inputS

	rate := func(clients []*objClient) float64 {
		start := time.Now()
		return float64(b.batch(l, quota, clients)) / time.Since(start).Seconds()
	}
	two := rate(b.clients)
	m["objcache.scaling"] = two / (objClients * rate(b.clients[:1]))
	return traced
}

// zipfTable draws ranks with P(rank=i) ∝ 1/(i+1)^theta by inverse CDF.
type zipfTable struct {
	cum   []float64
	total float64
}

func newZipfTable(n int, theta float64) *zipfTable {
	t := &zipfTable{cum: make([]float64, n)}
	sum := 0.0
	for i := range t.cum {
		sum += 1 / math.Pow(float64(i+1), theta)
		t.cum[i] = sum
	}
	t.total = sum
	return t
}

func (t *zipfTable) rank(r uint64) int {
	u := float64(r>>11) / (1 << 53) * t.total
	return sort.SearchFloat64s(t.cum, u)
}
