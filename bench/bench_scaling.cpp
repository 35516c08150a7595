// Scaling ablation: batch throughput and solution quality as the device
// count and blocks-per-device grow — the CPU-substrate analogue of the
// paper's "8 NVIDIA A100" parallel deployment (§V).  On a single core the
// threaded pipeline cannot show real speedups, so the bench reports
// *throughput* (batches/s) and *work distribution* to demonstrate that the
// architecture scales structurally; on a multicore host the same binary
// shows genuine parallel speedup.
#include "bench_common.hpp"
#include "problems/maxcut.hpp"

namespace dabs {
namespace {

namespace pr = problems;

void run() {
  bench::print_banner("Scaling — devices x blocks (threaded pipeline)");
  const auto inst = pr::make_random_maxcut(
      bench::full_size() ? 2000 : 400,
      bench::full_size() ? 19990 : 4000, pr::EdgeWeights::kPlusOne, 22,
      "G22-scale");
  const QuboModel m = pr::maxcut_to_qubo(inst);
  bench::note("instance " + inst.name + ": " + m.describe());

  io::ResultsTable table("Scaling (fixed wall-clock per cell)");
  table.columns({"devices", "blocks", "batches", "batches/s", "best energy"});

  const double budget = 2.0 * bench::scale();
  for (const std::size_t devices : {1u, 2u, 4u, 8u}) {
    for (const std::uint32_t blocks : {1u, 4u}) {
      SolverConfig c = bench::bench_config(37, 0.1, 1.0);
      c.devices = devices;
      c.device.blocks = blocks;
      c.mode = ExecutionMode::kThreaded;
      c.stop.time_limit_seconds = budget;
      DabsSolver solver(c);
      const SolveReport r = bench::solve_on(solver, m, c.stop);
      const auto rate =
          static_cast<long long>(double(r.batches) / r.elapsed_seconds);
      table.add_row({std::to_string(devices), std::to_string(blocks),
                     std::to_string(r.batches), std::to_string(rate),
                     io::fmt_energy(r.best_energy)});
    }
  }
  table.print(std::cout);
  bench::note("on a single-core host the totals stay flat (time-sliced); "
              "on an N-core host batches/s scales with devices x blocks "
              "until cores saturate.");
}

}  // namespace
}  // namespace dabs

int main() {
  dabs::run();
  return 0;
}
