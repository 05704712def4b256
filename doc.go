// Package chrome is a from-scratch Go reproduction of "CHROME:
// Concurrency-Aware Holistic Cache Management Framework with Online
// Reinforcement Learning" (Lu, Najafi, Liu, Sun — HPCA 2024).
//
// The repository contains the CHROME reinforcement-learning cache agent
// (internal/chrome), every substrate it depends on — a trace-driven
// multi-core cache-hierarchy simulator (internal/sim, internal/cpu,
// internal/cache), synthetic SPEC/GAP workload generators (internal/trace,
// internal/workload), hardware prefetchers (internal/prefetch), the C-AMAT
// concurrency monitor (internal/camat) — and re-implementations of the
// compared state-of-the-art policies Hawkeye, Glider, Mockingjay, CARE and
// SHiP++ (internal/policy).
//
// Entry points:
//
//   - cmd/chromesim:    run one simulation configuration, over workload
//     generators or a CHRC recording (-trace)
//   - cmd/experiments:  reproduce the paper's tables and figures
//   - cmd/traces:       record, inspect and verify CHRC recordings
//   - cmd/objbench:     drive the CHROME-managed object cache
//   - cmd/chromevet:    the repository's static-analysis suite
//   - examples/...:     runnable scenarios using the public APIs
//
// cmd/experiments regenerates every table and figure of the paper's
// evaluation section. bench_test.go holds one benchmark per paper artifact
// at a reduced scale plus ablation and micro-benchmarks; see DESIGN.md for
// the experiment index and EXPERIMENTS.md for recorded paper-vs-measured
// results.
package chrome
