// Fig. 6 reproduction: histogram of best solutions found within fixed time
// limits T, 2T, 4T.  The paper runs the D-Wave Hybrid solver at T = 50, 100,
// 200 s; our comparator is the "sa" registry solver (README
// "Substitutions") — the shape to reproduce is "longer limits shift mass
// toward the optimum".
#include <array>
#include <map>

#include "bench_common.hpp"
#include "problems/maxcut.hpp"

namespace dabs {
namespace {

namespace pr = problems;

void run() {
  bench::print_banner("Fig. 6 — solution histogram vs time limit (SA "
                      "comparator standing in for D-Wave Hybrid)");
  bench::JsonSink sink("fig6_limit_hist");
  const auto inst = bench::full_size()
                        ? pr::make_k2000()
                        : pr::make_complete_maxcut(300, 2000, "K300");
  const QuboModel m = pr::maxcut_to_qubo(inst);
  bench::note("instance " + inst.name + ": " + m.describe());

  // Short enough that the smallest limit misses the optimum regularly —
  // otherwise all three histograms degenerate onto one bar.
  const double base_limit = 0.03 * bench::scale();
  const std::size_t runs_per_limit = bench::trials(20);

  io::ResultsTable table("Fig. 6 histogram (energy -> count per limit)");
  table.columns({"energy", "T=" + io::fmt_seconds(base_limit),
                 "T=" + io::fmt_seconds(2 * base_limit),
                 "T=" + io::fmt_seconds(4 * base_limit)});

  std::map<Energy, std::array<std::size_t, 3>> counts;
  std::array<Energy, 3> best_per_limit{kInfiniteEnergy, kInfiniteEnergy,
                                       kInfiniteEnergy};
  for (int li = 0; li < 3; ++li) {
    const double limit = base_limit * double(1 << li);
    for (std::size_t r = 0; r < runs_per_limit; ++r) {
      const auto solver = bench::make_solver(
          "sa", SolverOptions{{"sweeps", "400"},
                              {"restarts", "1000000"},  // time-limited
                              {"seed", std::to_string(5000 + li * 1000 + r)}});
      StopCondition stop;
      stop.time_limit_seconds = limit;
      const SolveReport res = bench::solve_on(*solver, m, stop);
      ++counts[res.best_energy][li];
      best_per_limit[li] = std::min(best_per_limit[li], res.best_energy);
    }
  }
  for (const auto& [energy, c] : counts) {
    table.add_row({io::fmt_energy(energy), std::to_string(c[0]),
                   std::to_string(c[1]), std::to_string(c[2])});
    sink.row({{"energy", std::to_string(energy)},
              {"count_t1", std::to_string(c[0])},
              {"count_t2", std::to_string(c[1])},
              {"count_t4", std::to_string(c[2])}});
  }
  table.print(std::cout);
  for (int li = 0; li < 3; ++li) {
    sink.metric("best_energy_t" + std::to_string(1 << li),
                double(best_per_limit[li]));
  }
  bench::note("expected shape: larger T concentrates counts at lower "
              "energies (paper Fig. 6).");
}

}  // namespace
}  // namespace dabs

int main() {
  dabs::run();
  return 0;
}
