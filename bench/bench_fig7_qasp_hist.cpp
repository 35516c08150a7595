// Fig. 7 reproduction: histogram of DABS running time to reach the
// potentially optimal solution for QASP1 / QASP16 / QASP256.
#include <algorithm>

#include "bench_common.hpp"
#include "problems/qasp.hpp"
#include "util/histogram.hpp"

namespace dabs {
namespace {

namespace pr = problems;

void run() {
  bench::print_banner("Fig. 7 — solve-time histograms, QASP1/16/256");
  bench::JsonSink sink("fig7_qasp_hist");
  const double time_budget = 6.0 * bench::scale();
  const std::size_t n_trials = bench::trials(20);

  for (const int r : {1, 16, 256}) {
    pr::QaspParams params;
    params.resolution = r;
    params.pegasus_m = bench::full_size() ? 16 : 4;
    params.working_nodes = bench::full_size() ? 5627 : 280;
    params.value_seed = 42 + r;
    const pr::QaspInstance inst = pr::make_qasp(params);

    StopCondition ref_stop;
    ref_stop.time_limit_seconds = 2.0 * time_budget;
    const Energy ref =
        bench::solve_on(
            *bench::make_solver("dabs", bench::bulk_options(31, 0.1, 1.0)),
            inst.qubo, ref_stop)
            .best_energy;

    const std::uint64_t seed = 7000 + 100 * r;
    const CampaignResult camp = run_campaign(
        *bench::make_solver("dabs", bench::bulk_options(0.1, 1.0)),
        bench::campaign_request(inst.qubo, time_budget, seed), ref, n_trials);
    std::cout << "QASP" << r << " ref=" << io::fmt_energy(ref) << " ("
              << camp.successes << " hits, " << (camp.runs - camp.successes)
              << " misses)\n";
    const std::string suffix = "_qasp" + std::to_string(r);
    sink.metric("success_rate" + suffix, camp.success_rate());
    if (camp.tts_samples.empty()) continue;
    sink.metric("tts_mean" + suffix, camp.tts.mean());
    const std::vector<double>& tts = camp.tts_samples;
    const double hi = *std::max_element(tts.begin(), tts.end());
    const double width = std::max(hi / 20.0, 1e-3);  // paper: 1 s bins / 20
    Histogram hist(0.0, hi + width, width);
    for (const double s : tts) hist.add(s);
    std::cout << hist.to_table(3);
    for (std::size_t i = 0; i < hist.bin_count(); ++i) {
      sink.row({{"resolution", std::to_string(r)},
                {"bin_lo", std::to_string(hist.bin_lo(i))},
                {"count", std::to_string(hist.count(i))}});
    }
  }
  bench::note("paper shape: all three resolutions concentrate at small "
              "times with a short tail (Fig. 7).");
}

}  // namespace
}  // namespace dabs

int main() {
  dabs::run();
  return 0;
}
