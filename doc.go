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
//   - cmd/chromesim:    run one simulation configuration over recorded
//     workload streams
//   - cmd/experiments:  reproduce the paper's tables and figures
//   - cmd/chromevet:    the repository's static-analysis suite, one
//     flagless check over internal/ and cmd/
//
// cmd/experiments regenerates every table and figure of the paper's
// evaluation section, and the bench module (bench/run.sh) measures the
// simulator's performance; see DESIGN.md for the experiment index and
// EXPERIMENTS.md for recorded paper-vs-measured results.
package chrome
