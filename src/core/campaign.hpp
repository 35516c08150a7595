// Repeated-trial campaign runner — the measurement protocol behind the
// paper's tables and figures: run N independent executions of one solver
// against a target energy, recording time-to-solution statistics and the
// success probability within the per-trial budget (paper §VI: "the TTS
// does not count the execution time of a trial if it fails to find the
// potential optimal solution within the time limit").
//
// run_campaign() is the one way to run trials; the CLI's --campaign, the
// paper benches and the tests all go through it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/solver.hpp"
#include "qubo/types.hpp"
#include "util/bit_vector.hpp"
#include "util/stats.hpp"

namespace dabs {

struct CampaignResult {
  Energy best_energy = kInfiniteEnergy;  // best across all trials
  BitVector best_solution;               // first trial to attain it
  std::size_t runs = 0;
  std::size_t successes = 0;             // trials that reached the target
  SummaryStats tts;                      // over successful trials only
  std::vector<double> tts_samples;       // per-success TTS (histograms)
  std::vector<Energy> final_energies;    // per-trial best (Fig. 6 style)
  std::vector<double> trial_seconds;     // per-trial elapsed, every trial

  double success_rate() const {
    return runs ? double(successes) / double(runs) : 0.0;
  }

  /// Mean wall time of one trial, failed trials (which run to the budget)
  /// included: the t_trial of tts_at_confidence().
  double mean_trial_seconds() const;

  /// TTS(confidence) over this campaign's trials; +infinity when no trial
  /// succeeded.
  double tts_at(double confidence = 0.99) const;
};

/// The request trial `trial` of a campaign issues: `proto` with its stop
/// condition, warm start and run-scoped hooks (stop token, observer, tick
/// period), the target installed, and a seed derived from the prototype's
/// (or SolverConfig's default) seed so every trial explores differently.
SolveRequest trial_request(const SolveRequest& proto, Energy target,
                           std::size_t trial);

/// Runs `trials` independent trials of `solver` against `target` on a pool
/// of max(1, `threads`) workers.  One worker runs the trials serially in
/// trial order; more rely on the Solver contract that solve() is safe to
/// call concurrently on one instance (an observer in `proto` must then be
/// thread-safe too).  Every trial runs; the first failed trial's exception
/// (in trial order) is then rethrown.  Reports are kept by trial slot, so
/// the aggregate does not depend on the thread count.
CampaignResult run_campaign(Solver& solver, const SolveRequest& proto,
                            Energy target, std::size_t trials,
                            std::size_t threads = 1);

/// Standard annealing-literature time-to-solution at confidence p:
///
///   TTS(p) = t_trial * ln(1 - p) / ln(1 - s)
///
/// where s is the per-trial success probability and t_trial the per-trial
/// time.  Returns t_trial when s >= 1 (one run suffices) and +infinity
/// when s <= 0.
double tts_at_confidence(double trial_seconds, double success_rate,
                         double confidence = 0.99);

}  // namespace dabs
