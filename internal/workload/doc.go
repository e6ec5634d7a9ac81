// Package workload generates the controlled IR instances the benchmarks,
// experiments, and property tests sweep over:
//
//   - Chain / Chains — one long write chain (worst-case pointer-jumping
//     round count, and the shape that selects the ordinary solver's
//     blocked-scan schedule) and k parallel chains;
//   - RandomOrdinary — random distinct-g systems, the fuzzers' staple;
//   - Scatter — non-distinct g with commutative combine, modeled on the
//     Livermore gather/scatter kernels (GIR-only territory);
//   - Fibonacci / RandomGIR — general systems with tunable fan-in;
//   - InitInt64 — bounded random initial values.
//
// Invariants and contracts:
//
//   - Every generator is a pure function of its arguments: deterministic
//     given its seed (generators taking *rand.Rand draw only from it), so
//     experiment rows and fuzz cases reproduce exactly.
//   - Returned systems are fresh and valid (core.System.Validate passes);
//     generators never share or retain state, so concurrent calls with
//     separate rngs are safe.
//   - Shapes are stable across releases: benchmark baselines
//     (BENCH_*.json) compare runs of the same generator arguments, so
//     changing a generator's output for given inputs invalidates the
//     checked-in baselines and is a breaking change.
package workload
