// Micro benchmarks (google-benchmark): per-iteration cost of each main
// search algorithm, of the straight walk, and throughput of a whole batch
// search.  The K2000 instances show the Step-2 selection cost next to the
// flip kernel; on K300 the kernel alone dominates.
#include <benchmark/benchmark.h>

#include "evolve/genetic_ops.hpp"
#include "problems/maxcut.hpp"
#include "qubo/search_state.hpp"
#include "search/batch_search.hpp"
#include "search/registry.hpp"
#include "search/straight.hpp"

namespace dabs {
namespace {

const QuboModel& k300() {
  static const QuboModel m =
      problems::maxcut_to_qubo(problems::make_complete_maxcut(300, 7, "K300"));
  return m;
}

const QuboModel& k2000() {
  static const QuboModel m = problems::maxcut_to_qubo(
      problems::make_complete_maxcut(2000, 7, "K2000"));
  return m;
}

const QuboModel& model_of(std::int64_t n) {
  return n == 2000 ? k2000() : k300();
}

/// Args: {MainSearch id, n}.
void BM_MainSearchIteration(benchmark::State& state) {
  const auto id = static_cast<MainSearch>(state.range(0));
  const QuboModel& m = model_of(state.range(1));
  SearchState s(m);
  Rng rng(1);
  s.reset_to(random_bit_vector(m.size(), rng));
  TabuList tabu(m.size(), 8);
  auto algo = make_search_algorithm(id);
  for (auto _ : state) {
    algo->run(s, rng, &tabu, 16);
  }
  state.SetItemsProcessed(state.iterations() * 16);
  state.SetLabel(std::string(to_string(id)));
}
BENCHMARK(BM_MainSearchIteration)
    ->ArgsProduct({benchmark::CreateDenseRange(
                       0, static_cast<int>(kMainSearchCount) - 1, 1),
                   {300, 2000}});

/// Straight walk (Step 2 restricted to the bits differing from the
/// target) from one random vector to another; items are flips.
void BM_StraightWalk(benchmark::State& state) {
  const QuboModel& m = model_of(state.range(0));
  SearchState s(m);
  Rng rng(5);
  std::uint64_t flips = 0;
  for (auto _ : state) {
    state.PauseTiming();
    s.reset_to(random_bit_vector(m.size(), rng));
    const BitVector target = random_bit_vector(m.size(), rng);
    state.ResumeTiming();
    flips += straight_walk(s, target);
    benchmark::DoNotOptimize(s.best_energy());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(flips));
}
BENCHMARK(BM_StraightWalk)->Arg(300)->Arg(2000);

void BM_BatchSearchThroughput(benchmark::State& state) {
  const QuboModel& m = k300();
  BatchParams p;
  p.search_flip_factor = 0.1;
  p.batch_flip_factor = 1.0;
  BatchSearch bs(m, p, 42);
  Rng rng(2);
  std::uint64_t flips = 0;
  for (auto _ : state) {
    const BitVector target = random_bit_vector(m.size(), rng);
    const BatchResult r = bs.run(target, MainSearch::kCyclicMin);
    flips += r.flips;
    benchmark::DoNotOptimize(r.best_energy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(flips));
  state.SetLabel("flips/sec");
}
BENCHMARK(BM_BatchSearchThroughput);

void BM_GreedyDescent(benchmark::State& state) {
  const QuboModel& m = k300();
  SearchState s(m);
  Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    s.reset_to(random_bit_vector(m.size(), rng));
    state.ResumeTiming();
    ScanResult r = s.scan();
    while (r.min_delta < 0) r = s.flip_and_scan(r.argmin);
    benchmark::DoNotOptimize(s.energy());
  }
}
BENCHMARK(BM_GreedyDescent);

void BM_GeneticOperation(benchmark::State& state) {
  const auto op = static_cast<GeneticOp>(state.range(0));
  const std::size_t n = 2000;
  SolutionPool pool(100, n);
  SolutionPool neighbor(100, n);
  Rng rng(4);
  pool.initialize_random(rng);
  neighbor.initialize_random(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        apply_genetic_op(op, n, pool, &neighbor, rng));
  }
  state.SetLabel(std::string(to_string(op)));
}
BENCHMARK(BM_GeneticOperation)
    ->DenseRange(0, static_cast<int>(kGeneticOpCount) - 1);

}  // namespace
}  // namespace dabs

BENCHMARK_MAIN();
