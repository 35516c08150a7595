// Micro benchmarks (google-benchmark): the incremental machinery that makes
// the whole framework viable — O(deg) flips and O(n) scans versus O(n^2)
// full evaluation (paper §III-A's motivation), plus the density-adaptive
// kernel engine: dense-row vs CSR backends on the same K2000 instance and
// the fused flip_and_scan entry point.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "evolve/genetic_ops.hpp"
#include "problems/maxcut.hpp"
#include "qubo/qubo_builder.hpp"
#include "qubo/search_state.hpp"
#include "rng/xorshift.hpp"
#include "search/bulk_search_state.hpp"

namespace dabs {
namespace {

QuboModel dense_model(std::size_t n, std::uint64_t seed,
                      QuboBackend backend = QuboBackend::kAuto) {
  Rng rng(seed);
  QuboBuilder b(n);
  b.set_backend(backend);
  for (VarIndex i = 0; i < n; ++i) {
    b.add_linear(i, static_cast<Weight>(rng.next_index(9)) - 4);
    for (VarIndex j = i + 1; j < n; ++j) {
      b.add_quadratic(i, j, rng.next_bit() ? 1 : -1);
    }
  }
  return b.build();
}

/// K2000 complete-MaxCut QUBO with a forced kernel backend — the
/// head-to-head instance for the acceptance numbers in BENCH_micro.json.
const QuboModel& k2000(QuboBackend backend) {
  static const QuboModel csr =
      problems::maxcut_to_qubo(problems::make_k2000(), QuboBackend::kCsr);
  static const QuboModel dense =
      problems::maxcut_to_qubo(problems::make_k2000(), QuboBackend::kDense);
  return backend == QuboBackend::kDense ? dense : csr;
}

/// K2000's terms times 2^20: the same trajectories on the int64 kernel
/// (its |Delta| bound no longer fits int16), to compare kernel widths.
const QuboModel& k2000_wide() {
  static const QuboModel m = [] {
    const QuboModel& k = k2000(QuboBackend::kDense);
    constexpr Weight kScale = 1 << 20;
    QuboBuilder b(k.size());
    b.set_backend(QuboBackend::kDense);
    for (VarIndex i = 0; i < k.size(); ++i) {
      b.add_linear(i, k.diag(i) * kScale);
      k.for_each_coupling(i, [&](VarIndex j, Weight w) {
        if (j > i) b.add_quadratic(i, j, w * kScale);
      });
    }
    return b.build();
  }();
  return m;
}

QuboModel sparse_model(std::size_t n, std::size_t deg, std::uint64_t seed) {
  Rng rng(seed);
  QuboBuilder b(n);
  for (VarIndex i = 0; i < n; ++i) {
    b.add_linear(i, static_cast<Weight>(rng.next_index(9)) - 4);
    for (std::size_t d = 0; d < deg; ++d) {
      const auto j = static_cast<VarIndex>(rng.next_index(n));
      if (j != i) b.add_quadratic(i, j, rng.next_bit() ? 1 : -1);
    }
  }
  return b.build();
}

void BM_FullEnergyDense(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const QuboModel m = dense_model(n, 1);
  Rng rng(2);
  const BitVector x = random_bit_vector(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.energy(x));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FullEnergyDense)
    ->Arg(128)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(2000)
    ->Complexity();

void BM_IncrementalFlipDense(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const QuboModel m = dense_model(n, 3);
  SearchState s(m);
  Rng rng(4);
  s.reset_to(random_bit_vector(n, rng));
  VarIndex i = 0;
  for (auto _ : state) {
    s.flip(i);
    i = static_cast<VarIndex>((i + 1) % n);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_IncrementalFlipDense)
    ->Arg(128)
    ->Arg(512)
    ->Arg(1024)
    ->Complexity();

// Head-to-head on the identical K2000 instance: the dense row-stream kernel
// vs the generic CSR walk.  items_per_second == flips/sec; the acceptance
// bar is dense >= 2x the pre-engine (CSR) number.
void BM_FlipK2000(benchmark::State& state) {
  const auto backend = static_cast<QuboBackend>(state.range(0));
  const QuboModel& m = k2000(backend);
  SearchState s(m);
  Rng rng(4);
  s.reset_to(random_bit_vector(m.size(), rng));
  VarIndex i = 0;
  const auto n = static_cast<VarIndex>(m.size());
  for (auto _ : state) {
    s.flip(i);
    i = static_cast<VarIndex>((i + 1) % n);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(to_string(backend));
}
BENCHMARK(BM_FlipK2000)
    ->Arg(static_cast<int>(QuboBackend::kCsr))
    ->Arg(static_cast<int>(QuboBackend::kDense));

// Fused Step 3 + Step 1 (one search iteration's kernel work) on K2000.
// Args: {backend, scale}; scale 2^20 runs the dense int64 kernel on the
// same trajectory that scale 1 runs at int16.
void BM_FlipAndScanK2000(benchmark::State& state) {
  const auto backend = static_cast<QuboBackend>(state.range(0));
  const QuboModel& m = state.range(1) == 1 ? k2000(backend) : k2000_wide();
  SearchState s(m);
  Rng rng(5);
  s.reset_to(random_bit_vector(m.size(), rng));
  VarIndex i = 0;
  const auto n = static_cast<VarIndex>(m.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.flip_and_scan(i));
    i = static_cast<VarIndex>((i + 1) % n);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::string(to_string(m.backend())) + " delta=" +
                 to_string(m.delta_width()));
}
BENCHMARK(BM_FlipAndScanK2000)
    ->Args({static_cast<int>(QuboBackend::kCsr), 1})
    ->Args({static_cast<int>(QuboBackend::kDense), 1})
    ->Args({static_cast<int>(QuboBackend::kDense), 1 << 20});

// Bulk replica engine on K2000: 64 replicas advance per chunk pass, so one
// dense row load amortizes across 64 delta updates.  items_per_second
// counts *lane-flips* (positions x 64 lanes) — the aggregate flip
// throughput to compare against BM_FlipK2000's single-replica number.
// Build with -DDABS_NATIVE=ON for the published numbers: the int16 kernel
// needs the host's full vector width to pay off.
void BM_BulkFlipK2000(benchmark::State& state) {
  constexpr std::size_t kReplicas = 64;
  constexpr std::size_t kChunk = BulkSearchState::kMaxChunk;
  const auto backend = static_cast<QuboBackend>(state.range(0));
  const QuboModel& m = k2000(backend);
  BulkSearchState s(m, kReplicas);
  Rng rng(4);
  for (std::size_t r = 0; r < kReplicas; ++r) {
    s.reset_to(r, random_bit_vector(m.size(), rng));
  }
  const auto n = static_cast<VarIndex>(m.size());
  const std::vector<std::uint64_t> full(kChunk, ~std::uint64_t{0});
  std::vector<VarIndex> idx(kChunk);
  VarIndex i = 0;
  for (auto _ : state) {
    for (std::size_t p = 0; p < kChunk; ++p) {
      idx[p] = i;
      i = static_cast<VarIndex>((i + 1) % n);
    }
    s.flip_chunk(idx, full);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kChunk * kReplicas));
  state.SetLabel(to_string(backend));
}
BENCHMARK(BM_BulkFlipK2000)
    ->Arg(static_cast<int>(QuboBackend::kCsr))
    ->Arg(static_cast<int>(QuboBackend::kDense));

// Bulk fused Step 3 + Step 1: one masked flip + the 64-lane scan per
// iteration — the bulk equivalent of BM_FlipAndScanK2000.
void BM_BulkFlipAndScanK2000(benchmark::State& state) {
  constexpr std::size_t kReplicas = 64;
  const auto backend = static_cast<QuboBackend>(state.range(0));
  const QuboModel& m = k2000(backend);
  BulkSearchState s(m, kReplicas);
  Rng rng(5);
  for (std::size_t r = 0; r < kReplicas; ++r) {
    s.reset_to(r, random_bit_vector(m.size(), rng));
  }
  const auto n = static_cast<VarIndex>(m.size());
  const std::vector<std::uint64_t> full(1, ~std::uint64_t{0});
  std::vector<ScanResult> out(kReplicas);
  VarIndex i = 0;
  for (auto _ : state) {
    s.flip_and_scan(i, full, out);
    benchmark::DoNotOptimize(out.data());
    i = static_cast<VarIndex>((i + 1) % n);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kReplicas));
  state.SetLabel(to_string(backend));
}
BENCHMARK(BM_BulkFlipAndScanK2000)
    ->Arg(static_cast<int>(QuboBackend::kCsr))
    ->Arg(static_cast<int>(QuboBackend::kDense));

void BM_IncrementalFlipSparse(benchmark::State& state) {
  // Pegasus-like degree ~15: flips should be ~O(15) regardless of n.
  // Guards the <= 5% sparse-regression bound of the kernel engine.
  const auto n = static_cast<std::size_t>(state.range(0));
  const QuboModel m = sparse_model(n, 8, 5);
  SearchState s(m);
  Rng rng(6);
  s.reset_to(random_bit_vector(n, rng));
  VarIndex i = 0;
  for (auto _ : state) {
    s.flip(i);
    i = static_cast<VarIndex>((i + 1) % n);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IncrementalFlipSparse)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_ScanStep1(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const QuboModel m = sparse_model(n, 8, 7);
  SearchState s(m);
  Rng rng(8);
  s.reset_to(random_bit_vector(n, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.scan());
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ScanStep1)->Arg(512)->Arg(2048)->Arg(8192)->Complexity();

void BM_DeltaAllRecompute(benchmark::State& state) {
  // The cost reset_to pays — what the incremental updates avoid per flip.
  const auto n = static_cast<std::size_t>(state.range(0));
  const QuboModel m = dense_model(n, 9);
  Rng rng(10);
  const BitVector x = random_bit_vector(n, rng);
  std::vector<Energy> out;
  for (auto _ : state) {
    m.delta_all(x, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_DeltaAllRecompute)->Arg(128)->Arg(512)->Arg(1024);

}  // namespace
}  // namespace dabs

BENCHMARK_MAIN();
