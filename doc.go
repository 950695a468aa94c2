// Package akamaidns is a from-scratch, stdlib-only Go reproduction of
// "Akamai DNS: Providing Authoritative Answers to the World's Queries"
// (Schomp et al., SIGCOMM 2020).
//
// The repository builds every system the paper describes or depends on:
// a DNS wire codec and authoritative zone store, a discrete-event network
// simulator with geo-embedded latency and IP TTL semantics, a path-vector
// BGP implementation with per-peer policy and MRAI pacing, the 24-cloud
// anycast address plan with unique per-enterprise delegation sets, PoPs of
// nameserver machines behind ECMP routers with monitoring agents and
// input-delayed instances, the five-filter query scoring pipeline with
// penalty queues, the Mapping Intelligence and publish/subscribe metadata
// fabric, a caching recursive resolver, the Two-Tier delegation model, a
// workload generator calibrated to the paper's production traffic
// characterization, the attack taxonomy with the Figure 9 traffic
// engineering decision tree (the operators' manual procedure; the
// automation §4.3.2 names as future work is not built) — plus a real
// UDP/TCP authoritative server (cmd/authdns) running the same code over
// sockets.
//
// Every figure and in-text result of the paper's evaluation is regenerated
// by internal/experiments (driven by cmd/experiments and the benchmarks in
// bench_test.go); EXPERIMENTS.md records paper-vs-measured for each.
package akamaidns
