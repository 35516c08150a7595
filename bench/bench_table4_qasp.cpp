// Table IV reproduction: QASP at resolutions r = 1, 16, 256 on the Pegasus
// working graph (paper: D-Wave Advantage 4.1, 5627 qubits).  Rows: DABS
// (TTS), ABS (TTS + probability), comparator gaps.
#include <algorithm>

#include "bench_common.hpp"
#include "problems/qasp.hpp"

namespace dabs {
namespace {

namespace pr = problems;
using bench::bulk_options;

pr::QaspParams qasp_params(int resolution) {
  pr::QaspParams p;
  p.resolution = resolution;
  if (bench::full_size()) {
    p.pegasus_m = 16;
    p.working_nodes = 5627;  // Advantage 4.1 working-qubit count
  } else {
    p.pegasus_m = 4;
    p.working_nodes = 280;  // ~97% of P4's 288 qubits
  }
  p.graph_seed = 41;
  p.value_seed = 42 + resolution;
  return p;
}

void run() {
  bench::print_banner("Table IV — QASP r = 1 / 16 / 256 (Pegasus)");
  bench::JsonSink sink("table4_qasp");
  io::ResultsTable table("Table IV");
  table.columns({"QASP", "nodes", "edges", "ref", "ref beaten",
                 "DABS best", "DABS TTS", "DABS succ", "ABS best", "ABS succ",
                 "SA gap", "Tabu gap"});

  const double time_budget = 4.0 * bench::scale();
  const std::size_t n_trials = bench::trials(5);

  for (const int r : {1, 16, 256}) {
    const pr::QaspInstance inst = pr::make_qasp(qasp_params(r));
    bench::note("QASP" + std::to_string(r) + ": " + inst.qubo.describe());

    StopCondition ref_stop;
    ref_stop.time_limit_seconds = 2.0 * time_budget;
    const SolveReport ref = bench::solve_on(
        *bench::make_solver("dabs", bulk_options(21, 0.1, 1.0)), inst.qubo,
        ref_stop);
    Energy best_known = ref.best_energy;

    StopCondition cmp_stop;
    cmp_stop.time_limit_seconds = time_budget;
    const SolveReport sa = bench::solve_on(
        *bench::make_solver("sa", SolverOptions{{"sweeps", "2000"},
                                                {"restarts", "6"}}),
        inst.qubo, cmp_stop);
    const SolveReport tb = bench::solve_on(
        *bench::make_solver("tabu", SolverOptions{{"iterations", "300000"}}),
        inst.qubo, cmp_stop);
    best_known = std::min({best_known, sa.best_energy, tb.best_energy});

    const CampaignResult dabs_camp = run_campaign(
        *bench::make_solver("dabs", bulk_options(0.1, 1.0)),
        bench::campaign_request(inst.qubo, time_budget, 500), best_known,
        n_trials);
    const CampaignResult abs_camp = run_campaign(
        *bench::make_solver("abs", bulk_options(0.1, 1.0)),
        bench::campaign_request(inst.qubo, time_budget, 600), best_known,
        n_trials);

    // The row's reference is the best energy any solver attained; flag a
    // campaign that beat the pre-pass reference its successes were
    // scored against.
    const Energy reference = std::min(
        {best_known, dabs_camp.best_energy, abs_camp.best_energy});
    const bool ref_beaten = reference < best_known;

    const std::string name = "QASP" + std::to_string(r);
    table.add_row(
        {name, std::to_string(inst.nodes),
         std::to_string(inst.edge_count), io::fmt_energy(reference),
         ref_beaten ? "yes" : "no",
         io::fmt_energy(dabs_camp.best_energy),
         dabs_camp.successes ? io::fmt_seconds(dabs_camp.tts.mean()) : "-",
         io::fmt_percent(dabs_camp.success_rate()),
         io::fmt_energy(abs_camp.best_energy),
         io::fmt_percent(abs_camp.success_rate()),
         io::fmt_gap(energy_gap(sa.best_energy, reference)),
         io::fmt_gap(energy_gap(tb.best_energy, reference))});
    sink.metric("success_rate_dabs_" + name, dabs_camp.success_rate());
    sink.metric("success_rate_abs_" + name, abs_camp.success_rate());
    sink.metric("ref_beaten_" + name, ref_beaten ? 1.0 : 0.0);
    if (dabs_camp.successes) {
      sink.metric("tts_mean_dabs_" + name, dabs_camp.tts.mean());
    }
    sink.row({{"instance", name},
              {"nodes", std::to_string(inst.nodes)},
              {"edges", std::to_string(inst.edge_count)},
              {"ref_energy", std::to_string(reference)},
              {"ref_beaten", ref_beaten ? "yes" : "no"},
              {"dabs_best", std::to_string(dabs_camp.best_energy)},
              {"abs_best", std::to_string(abs_camp.best_energy)}});
  }
  table.print(std::cout);
}

}  // namespace
}  // namespace dabs

int main() {
  dabs::run();
  return 0;
}
