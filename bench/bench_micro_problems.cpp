// Micro benchmarks (google-benchmark) for the unified Problem API: the
// encode -> decode -> verify path every problem-keyed job crosses.  Encode
// dominates (it rebuilds the QUBO); decode/verify are the per-report cost
// the batch front end pays on every finished job.
#include <benchmark/benchmark.h>

#include <memory>

#include "core/solver_registry.hpp"
#include "problems/maxcut.hpp"
#include "problems/problem_registry.hpp"
#include "rng/xorshift.hpp"

namespace dabs {
namespace {

/// Full encode + decode round trip per problem family, on instances sized
/// like the batch service's steady-state jobs.
void BM_EncodeDecode(benchmark::State& state, const char* spec,
                     SolverOptions params) {
  const std::unique_ptr<Problem> problem =
      ProblemRegistry::global().create(spec, params);
  // A fixed random vector stands in for a solver result.
  const QuboModel probe = problem->encode();
  Rng rng(11);
  BitVector x(probe.size());
  for (std::size_t i = 0; i < x.size(); ++i) x.set(i, rng.next_bit());

  for (auto _ : state) {
    const QuboModel model = problem->encode();
    const DomainSolution sol = problem->decode(x);
    const VerifyResult verdict = problem->verify(x, model.energy(x));
    benchmark::DoNotOptimize(model.size());
    benchmark::DoNotOptimize(sol.objective);
    benchmark::DoNotOptimize(verdict.ok);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/// Decode + verify only — the per-finished-job cost at emit time, with the
/// model already cached.
void BM_DecodeVerify(benchmark::State& state, const char* spec,
                     SolverOptions params) {
  const std::unique_ptr<Problem> problem =
      ProblemRegistry::global().create(spec, params);
  const QuboModel model = problem->encode();
  Rng rng(11);
  BitVector x(model.size());
  for (std::size_t i = 0; i < x.size(); ++i) x.set(i, rng.next_bit());

  for (auto _ : state) {
    const DomainSolution sol = problem->decode(x);
    const VerifyResult verdict = problem->verify(x, model.energy(x));
    benchmark::DoNotOptimize(sol.objective);
    benchmark::DoNotOptimize(verdict.ok);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/// The random MaxCut generator alone: what a problem job's admit runs
/// before any cache lookup (args: nodes, edges).  200/2000 is the service
/// benchmark's spec; 2000/19990 is G22's size.
void BM_MakeRandomMaxcut(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const problems::MaxCutInstance inst = problems::make_random_maxcut(
        n, m, problems::EdgeWeights::kPlusMinusOne, ++seed % 8 + 1);
    benchmark::DoNotOptimize(inst.edges.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MakeRandomMaxcut)
    ->Args({200, 2000})
    ->Args({2000, 19990})
    ->Unit(benchmark::kMicrosecond);

/// The K2000 generator alone: 1,999,000 sign bits drawn in the draw lanes.
void BM_MakeK2000(benchmark::State& state) {
  for (auto _ : state) {
    const problems::MaxCutInstance inst = problems::make_k2000();
    benchmark::DoNotOptimize(inst.signs.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MakeK2000)->Unit(benchmark::kMicrosecond);

BENCHMARK_CAPTURE(BM_EncodeDecode, maxcut_g_style, "maxcut",
                  {{"n", "200"}, {"m", "2000"}});
BENCHMARK_CAPTURE(BM_EncodeDecode, qap_grid_3x4, "qap",
                  {{"kind", "grid"}, {"rows", "3"}, {"cols", "4"}});
BENCHMARK_CAPTURE(BM_EncodeDecode, qasp_p3_r16, "qasp",
                  {{"r", "16"}, {"m", "3"}});
BENCHMARK_CAPTURE(BM_EncodeDecode, k2000, "k2000", {});
BENCHMARK_CAPTURE(BM_DecodeVerify, maxcut_g_style, "maxcut",
                  {{"n", "200"}, {"m", "2000"}});
BENCHMARK_CAPTURE(BM_DecodeVerify, qap_grid_3x4, "qap",
                  {{"kind", "grid"}, {"rows", "3"}, {"cols", "4"}});
BENCHMARK_CAPTURE(BM_DecodeVerify, k2000, "k2000", {});

}  // namespace
}  // namespace dabs

BENCHMARK_MAIN();
