#include "core/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <limits>
#include <numeric>
#include <utility>

#include "core/solve_report.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace dabs {

double CampaignResult::mean_trial_seconds() const {
  if (trial_seconds.empty()) return 0.0;
  return std::accumulate(trial_seconds.begin(), trial_seconds.end(), 0.0) /
         double(trial_seconds.size());
}

double CampaignResult::tts_at(double confidence) const {
  return tts_at_confidence(mean_trial_seconds(), success_rate(), confidence);
}

SolveRequest trial_request(const SolveRequest& proto, Energy target,
                           std::size_t trial) {
  SolveRequest req = proto;  // keeps model / stop / warm start / hooks
  req.seed = proto.seed.value_or(SolverConfig{}.seed) +
             0x9e3779b97f4a7c15ull * (trial + 1);
  req.stop.target_energy = target;
  return req;
}

CampaignResult run_campaign(Solver& solver, const SolveRequest& proto,
                            Energy target, std::size_t trials,
                            std::size_t threads) {
  DABS_CHECK(trials > 0, "campaign needs at least one trial");
  std::vector<SolveReport> reports(trials);
  // Each task writes only its own slot, once, at task end; a throwing
  // trial is rethrown here in slot order instead of escaping a worker.
  std::vector<std::exception_ptr> errors(trials);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(trials);
  for (std::size_t t = 0; t < trials; ++t) {
    tasks.push_back([&, t] {
      try {
        SolveReport local = solver.solve(trial_request(proto, target, t));
        reports[t] = std::move(local);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  ThreadPool pool(std::max<std::size_t>(1, threads));
  pool.submit_batch(std::move(tasks));
  pool.wait_idle();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  CampaignResult out;
  for (const SolveReport& r : reports) {
    ++out.runs;
    out.final_energies.push_back(r.best_energy);
    out.trial_seconds.push_back(r.elapsed_seconds);
    if (r.best_energy < out.best_energy) {
      out.best_energy = r.best_energy;
      out.best_solution = r.best_solution;
    }
    if (r.reached_target && r.best_energy <= target) {
      ++out.successes;
      out.tts.add(r.tts_seconds);
      out.tts_samples.push_back(r.tts_seconds);
    }
  }
  return out;
}

double tts_at_confidence(double trial_seconds, double success_rate,
                         double confidence) {
  DABS_CHECK(trial_seconds >= 0, "trial time must be non-negative");
  DABS_CHECK(confidence > 0 && confidence < 1,
             "confidence must be in (0, 1)");
  if (success_rate >= 1.0) return trial_seconds;
  if (success_rate <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  return trial_seconds * std::log(1.0 - confidence) /
         std::log(1.0 - success_rate);
}

}  // namespace dabs
