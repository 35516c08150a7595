// Micro benchmarks (google-benchmark) for the unified Problem API: the
// encode -> decode -> verify path every problem-keyed job crosses.  Encode
// dominates (it rebuilds the QUBO); decode/verify are the per-report cost
// the batch front end pays on every finished job.
#include <benchmark/benchmark.h>

#include <memory>

#include "core/solver_registry.hpp"
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

BENCHMARK_CAPTURE(BM_EncodeDecode, maxcut_g_style, "maxcut",
                  {{"n", "200"}, {"m", "2000"}});
BENCHMARK_CAPTURE(BM_EncodeDecode, qap_grid_3x4, "qap",
                  {{"kind", "grid"}, {"rows", "3"}, {"cols", "4"}});
BENCHMARK_CAPTURE(BM_EncodeDecode, tsp_12_cities, "tsp", {{"n", "12"}});
BENCHMARK_CAPTURE(BM_EncodeDecode, qasp_p3_r16, "qasp",
                  {{"r", "16"}, {"m", "3"}});
BENCHMARK_CAPTURE(BM_EncodeDecode, k2000, "k2000", {});
BENCHMARK_CAPTURE(BM_DecodeVerify, maxcut_g_style, "maxcut",
                  {{"n", "200"}, {"m", "2000"}});
BENCHMARK_CAPTURE(BM_DecodeVerify, qap_grid_3x4, "qap",
                  {{"kind", "grid"}, {"rows", "3"}, {"cols", "4"}});

}  // namespace
}  // namespace dabs

BENCHMARK_MAIN();
