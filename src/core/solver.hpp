// The unified solving surface (the load-bearing API for every layer built
// on top of the solvers: campaigns, servers, batching, multi-backend).
//
//   SolveRequest  — what to solve and when to stop: model + StopCondition +
//                   seed + warm-start vectors + cancellation + progress.
//   Solver        — the polymorphic interface all seven solvers implement
//                   (dabs, abs, sa, tabu, greedy-restart, subqubo,
//                   exhaustive; see core/solver_registry.hpp).
//   StopToken     — cooperative cancellation shared across threads.
//   StopContext   — the one shared stop/progress protocol: every solver
//                   polls it at a consistent per-iteration granularity
//                   instead of hand-rolling its own time-limit loop.
//
// Thread-safety contract: Solver implementations keep all per-run state
// local to solve(), so one instance may serve concurrent solve() calls
// (run_campaign's threaded trials rely on this).  Observer callbacks may
// arrive from any host thread of a threaded solver — keep them fast and
// thread-safe.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/solver_config.hpp"
#include "qubo/qubo_model.hpp"
#include "qubo/types.hpp"
#include "util/bit_vector.hpp"
#include "util/timer.hpp"

namespace dabs {

struct SolveReport;

/// Cooperative cancellation channel.  Copies share one flag, so a token
/// embedded in a SolveRequest can be fired from any other thread; solvers
/// poll it once per iteration and unwind within one iteration's work.
class StopToken {
 public:
  StopToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void request_stop() const noexcept {
    flag_->store(true, std::memory_order_release);
  }
  bool stop_requested() const noexcept {
    return flag_->load(std::memory_order_acquire);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Snapshot handed to observer callbacks.  `work` counts the solver's
/// natural unit: batches for the bulk solvers, flips for the baselines.
struct ProgressEvent {
  double elapsed_seconds = 0.0;
  Energy best_energy = kInfiniteEnergy;
  std::uint64_t work = 0;
};

/// Progress hooks.  Default-implemented so observers override only what
/// they need.  on_new_best fires on every global-best improvement;
/// on_tick fires at most once per SolveRequest::tick_seconds.
class ProgressObserver {
 public:
  virtual ~ProgressObserver() = default;
  virtual void on_new_best(const ProgressEvent& event) { (void)event; }
  virtual void on_tick(const ProgressEvent& event) { (void)event; }
};

/// One solve() invocation, fully specified.  The request owns everything
/// run-scoped; the Solver instance owns only its configuration.
struct SolveRequest {
  /// Model to solve.  Must be non-null and outlive the call.
  const QuboModel* model = nullptr;

  /// Stop conditions (target energy / wall clock / work budget).  When
  /// every field is unset, the solver falls back to the budget in its own
  /// configuration; the run must be bounded one way or the other.
  StopCondition stop;

  /// Master seed for the run; unset = the solver's configured seed.
  std::optional<std::uint64_t> seed;

  /// Solutions to start from (best effort: bulk solvers seed their pools,
  /// restart-style baselines use them as initial points).  Lengths must
  /// match the model.
  std::vector<BitVector> warm_start;

  /// Fire from another thread to cancel the run cooperatively.
  StopToken stop_token;

  /// Optional progress hooks; must outlive the call.
  ProgressObserver* observer = nullptr;
  /// Minimum seconds between on_tick callbacks (0 = no ticks).
  double tick_seconds = 0.0;
};

/// The interface every solver implements.  `solve` is re-entrant and safe
/// to call concurrently on one instance.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Registry name ("dabs", "sa", ...); stable across releases.
  virtual std::string_view name() const noexcept = 0;

  /// Runs until a stop condition, the token, or the solver's own budget
  /// fires; never throws on cancellation (the report says what happened).
  virtual SolveReport solve(const SolveRequest& request) = 0;
};

/// The one shared stop/progress helper.  A solver's driving thread creates
/// one per run and:
///
///   - polls should_stop() once per outer iteration (sweep, restart,
///     tabu step, batch) — this is the repo-wide wall-clock granularity;
///   - reports work units via add_work() (counted against
///     StopCondition::max_batches);
///   - reports improvements via note_best(), which latches the target /
///     TTS and fires ProgressObserver::on_new_best;
///   - stamps the protocol outcome onto its finished report via stamp().
///
/// Worker threads that must not fire callbacks poll the const, thread-safe
/// subset expired() instead (token + wall clock only).
class StopContext {
 public:
  explicit StopContext(StopCondition stop, StopToken token = {},
                       ProgressObserver* observer = nullptr,
                       double tick_seconds = 0.0);

  /// Builds the context for a request, substituting `fallback_time_limit`
  /// (a solver's own configured limit; 0 = none) when the request carries
  /// no stop condition at all.
  static StopContext for_request(const SolveRequest& request,
                                 double fallback_time_limit = 0.0);

  /// True when the run should end: token fired, wall clock or work budget
  /// exhausted, or the target energy was reached.  Also fires periodic
  /// on_tick callbacks.  Driving thread only.
  bool should_stop();

  /// Thread-safe subset of should_stop() for worker threads: token and
  /// wall clock only, no callbacks, no state updates.
  bool expired() const;

  /// Adds solver work units (flips or batches).
  void add_work(std::uint64_t units) noexcept { work_ += units; }

  /// Records a (possibly) improved best energy; cheap no-op when `energy`
  /// does not improve.  Latches reached-target / TTS, fires on_new_best.
  void note_best(Energy energy);

  /// Writes the protocol outcome onto a finished report: `cancelled`,
  /// `reached_target`, `tts_seconds` and `elapsed_seconds`.  A best that
  /// reaches the target without passing through note_best() (one found
  /// only when worker results merge) still latches it, at elapsed time.
  void stamp(SolveReport& report) const;

  std::uint64_t work() const noexcept { return work_; }
  Energy best_energy() const noexcept { return best_energy_; }
  bool cancelled() const noexcept { return cancelled_; }
  bool reached_target() const noexcept { return reached_target_; }
  /// Seconds from start to first reaching the target (valid only when
  /// reached_target()).
  double tts_seconds() const noexcept { return tts_seconds_; }
  double elapsed_seconds() const { return clock_.elapsed_seconds(); }
  const StopCondition& condition() const noexcept { return stop_; }

 private:
  StopCondition stop_;
  StopToken token_;
  ProgressObserver* observer_;
  double tick_seconds_;
  Stopwatch clock_;
  std::uint64_t work_ = 0;
  Energy best_energy_ = kInfiniteEnergy;
  bool reached_target_ = false;
  double tts_seconds_ = 0.0;
  bool cancelled_ = false;
  bool stopped_ = false;
  double last_tick_ = 0.0;
};

/// Validates and dereferences `request.model` (throws std::invalid_argument
/// on a null model or a warm-start length mismatch).
const QuboModel& request_model(const SolveRequest& request);

}  // namespace dabs
