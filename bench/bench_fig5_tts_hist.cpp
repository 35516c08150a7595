// Fig. 5 reproduction: histogram of DABS time-to-solution over many
// independent executions on the K2000-family MaxCut instance.  The paper
// bins TTS in 0.1 s buckets over [0, 1.7); bins here scale with the
// measured TTS range.
//
// Solvers are constructed through SolverRegistry (the CLI/server surface)
// and results go to DABS_BENCH_JSON for the tracked BENCH_paper.json.
#include <algorithm>

#include "bench_common.hpp"
#include "problems/maxcut.hpp"
#include "util/histogram.hpp"

namespace dabs {
namespace {

namespace pr = problems;

void run() {
  bench::print_banner("Fig. 5 — TTS histogram, K2000-family MaxCut");
  bench::JsonSink sink("fig5_tts_hist");
  const auto inst = bench::full_size()
                        ? pr::make_k2000()
                        : pr::make_complete_maxcut(300, 2000, "K300");
  const QuboModel m = pr::maxcut_to_qubo(inst);
  bench::note("instance " + inst.name + ": " + m.describe());

  // Reference energy from one long run (paper: s=0.1, b=10).
  StopCondition ref_stop;
  ref_stop.time_limit_seconds = 8.0 * bench::scale();
  const Energy ref =
      bench::solve_on(*bench::make_solver("dabs", bench::bulk_options(1, 0.1, 10.0)),
                      m, ref_stop)
          .best_energy;
  bench::note("potentially optimal energy: " + io::fmt_energy(ref) +
              "  (cut " + io::fmt_energy(-ref) + ")");
  sink.metric("ref_energy", double(ref));

  const std::size_t n_trials = bench::trials(30);
  const CampaignResult camp = run_campaign(
      *bench::make_solver("dabs", bench::bulk_options(0.1, 10.0)),
      bench::campaign_request(m, 8.0 * bench::scale(), 1000), ref, n_trials);
  sink.metric("trials", double(camp.runs));
  sink.metric("success_rate", camp.success_rate());

  if (camp.tts_samples.empty()) {
    bench::note("no successful trials at this scale");
    return;
  }
  const std::vector<double>& tts = camp.tts_samples;
  const double hi = *std::max_element(tts.begin(), tts.end());
  const double width = std::max(hi / 17.0, 1e-3);  // ~17 bins like Fig. 5
  Histogram hist(0.0, hi + width, width);
  for (const double s : tts) hist.add(s);
  std::cout << "TTS histogram over " << tts.size() << " successful runs ("
            << (camp.runs - camp.successes) << " failures):\n"
            << hist.to_table(3);
  std::cout << "TTS " << camp.tts.to_string() << "\n";
  sink.metric("tts_mean", camp.tts.mean());
  sink.metric("tts_max", hi);
  for (std::size_t i = 0; i < hist.bin_count(); ++i) {
    sink.row({{"bin_lo", std::to_string(hist.bin_lo(i))},
              {"count", std::to_string(hist.count(i))}});
  }
}

}  // namespace
}  // namespace dabs

int main() {
  dabs::run();
  return 0;
}
