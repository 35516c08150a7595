// Table III reproduction: QAP instances (tai20a / tho30 / nug30 families).
//
// The paper reports: QAP optimum, penalty, QUBO optimum = C(g*) - n*p,
// DABS TTS, ABS TTS + success probability, comparator gaps.  Real QAPLIB
// files can be placed next to the binary and loaded with io::read_qaplib;
// by default the bench uses generator instances from the same families
// (uniform/Taillard-like and grid/Nugent-like; README "Substitutions").
#include <algorithm>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "problems/qap.hpp"

namespace dabs {
namespace {

namespace pr = problems;
using bench::bulk_options;

struct Row {
  pr::QapInstance inst;
  Weight penalty;
};

std::vector<Row> instances() {
  if (bench::full_size()) {
    // Paper-size shapes; penalties follow the paper's order of magnitude.
    return {{pr::make_uniform_qap(20, 100, 20, "tai20-like"), 200000},
            {pr::make_uniform_qap(30, 50, 30, "tho30-like"), 30000},
            {pr::make_grid_qap(5, 6, 10, 30, "nug30-like"), 1000}};
  }
  return {{pr::make_uniform_qap(8, 20, 20, "tai8-like"), 0},
          {pr::make_uniform_qap(10, 10, 30, "tho10-like"), 0},
          {pr::make_grid_qap(3, 4, 10, 30, "nug12-like"), 0}};
}

void run() {
  bench::print_banner("Table III — QAP (tai / tho / nug families)");
  bench::JsonSink sink("table3_qap");
  io::ResultsTable table("Table III");
  table.columns({"instance", "penalty", "QUBO ref", "ref beaten",
                 "DABS best", "DABS TTS", "DABS succ", "ABS best", "ABS succ",
                 "SA gap", "Tabu gap", "subQUBO gap", "feasible"});

  const double time_budget = 4.0 * bench::scale();
  const std::size_t n_trials = bench::trials(5);

  for (Row& row : instances()) {
    const pr::QapQubo q = pr::qap_to_qubo(row.inst, row.penalty);
    bench::note("instance " + row.inst.name + " n=" +
                std::to_string(row.inst.n) + " -> " + q.model.describe() +
                " penalty=" + std::to_string(q.penalty));

    // Reference energy: long DABS run (paper QAP params s=0.1, b=1).
    StopCondition ref_stop;
    ref_stop.time_limit_seconds = 2.0 * time_budget;
    const SolveReport ref = bench::solve_on(
        *bench::make_solver("dabs", bulk_options(11, 0.1, 1.0)), q.model,
        ref_stop);
    Energy best_known = ref.best_energy;

    StopCondition cmp_stop;
    cmp_stop.time_limit_seconds = time_budget;
    const SolveReport sa = bench::solve_on(
        *bench::make_solver("sa", SolverOptions{{"sweeps", "1500"},
                                                {"restarts", "6"}}),
        q.model, cmp_stop);
    const SolveReport tb = bench::solve_on(
        *bench::make_solver("tabu", SolverOptions{{"iterations", "200000"}}),
        q.model, cmp_stop);
    // SubQUBO hybrid (the [37] comparator the paper cites on tai20a/tho30).
    const SolveReport sq = bench::solve_on(
        *bench::make_solver("subqubo", SolverOptions{{"subset", "16"},
                                                     {"iterations", "100000"},
                                                     {"restarts", "4"}}),
        q.model, cmp_stop);
    best_known = std::min({best_known, sa.best_energy, tb.best_energy,
                           sq.best_energy});

    const CampaignResult dabs_camp = run_campaign(
        *bench::make_solver("dabs", bulk_options(0.1, 1.0)),
        bench::campaign_request(q.model, time_budget, 300), best_known,
        n_trials);
    const CampaignResult abs_camp = run_campaign(
        *bench::make_solver("abs", bulk_options(0.1, 1.0)),
        bench::campaign_request(q.model, time_budget, 400), best_known,
        n_trials);

    // The row's reference is the best energy any solver attained; flag a
    // campaign that beat the pre-pass reference its successes were
    // scored against.
    const std::vector<std::pair<Energy, const BitVector*>> found = {
        {ref.best_energy, &ref.best_solution},
        {sa.best_energy, &sa.best_solution},
        {tb.best_energy, &tb.best_solution},
        {sq.best_energy, &sq.best_solution},
        {dabs_camp.best_energy, &dabs_camp.best_solution},
        {abs_camp.best_energy, &abs_camp.best_solution}};
    const auto attained = *std::min_element(
        found.begin(), found.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    const Energy reference = attained.first;
    const bool ref_beaten = reference < best_known;

    // Feasibility of the reference solution (one-hot decode).
    const bool feasible =
        pr::decode_assignment(*attained.second, row.inst.n).has_value();

    table.add_row(
        {row.inst.name, std::to_string(q.penalty),
         io::fmt_energy(reference), ref_beaten ? "yes" : "no",
         io::fmt_energy(dabs_camp.best_energy),
         dabs_camp.successes ? io::fmt_seconds(dabs_camp.tts.mean()) : "-",
         io::fmt_percent(dabs_camp.success_rate()),
         io::fmt_energy(abs_camp.best_energy),
         io::fmt_percent(abs_camp.success_rate()),
         io::fmt_gap(energy_gap(sa.best_energy, reference)),
         io::fmt_gap(energy_gap(tb.best_energy, reference)),
         io::fmt_gap(energy_gap(sq.best_energy, reference)),
         feasible ? "yes" : "NO"});
    sink.metric("success_rate_dabs_" + row.inst.name,
                dabs_camp.success_rate());
    sink.metric("success_rate_abs_" + row.inst.name, abs_camp.success_rate());
    sink.metric("ref_beaten_" + row.inst.name, ref_beaten ? 1.0 : 0.0);
    if (dabs_camp.successes) {
      sink.metric("tts_mean_dabs_" + row.inst.name, dabs_camp.tts.mean());
    }
    sink.row({{"instance", row.inst.name},
              {"penalty", std::to_string(q.penalty)},
              {"ref_energy", std::to_string(reference)},
              {"ref_beaten", ref_beaten ? "yes" : "no"},
              {"dabs_best", std::to_string(dabs_camp.best_energy)},
              {"abs_best", std::to_string(abs_camp.best_energy)},
              {"feasible", feasible ? "yes" : "no"}});
  }
  table.print(std::cout);
  bench::note("paper shape: DABS succeeds with TTS far below comparator "
              "budgets; ABS succeeds with lower probability; SA/Tabu end "
              "with positive gaps.");
}

}  // namespace
}  // namespace dabs

int main() {
  dabs::run();
  return 0;
}
