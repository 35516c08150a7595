#include "core/solver.hpp"

#include "core/solve_report.hpp"
#include "util/assert.hpp"

namespace dabs {

StopContext::StopContext(StopCondition stop, StopToken token,
                         ProgressObserver* observer, double tick_seconds)
    : stop_(stop), token_(std::move(token)), observer_(observer),
      tick_seconds_(tick_seconds) {}

StopContext StopContext::for_request(const SolveRequest& request,
                                     double fallback_time_limit) {
  StopCondition stop = request.stop;
  if (stop.unbounded() && fallback_time_limit > 0.0) {
    stop.time_limit_seconds = fallback_time_limit;
  }
  return StopContext(stop, request.stop_token, request.observer,
                     request.tick_seconds);
}

bool StopContext::should_stop() {
  if (stopped_) return true;
  if (token_.stop_requested()) {
    cancelled_ = true;
    stopped_ = true;
    return true;
  }
  const double now = clock_.elapsed_seconds();
  if (observer_ && tick_seconds_ > 0.0 && now - last_tick_ >= tick_seconds_) {
    last_tick_ = now;
    observer_->on_tick({now, best_energy_, work_});
  }
  if (reached_target_ ||
      (stop_.time_limit_seconds > 0.0 && now >= stop_.time_limit_seconds) ||
      (stop_.max_batches != 0 && work_ >= stop_.max_batches)) {
    stopped_ = true;
    return true;
  }
  return false;
}

bool StopContext::expired() const {
  if (token_.stop_requested()) return true;
  return stop_.time_limit_seconds > 0.0 &&
         clock_.elapsed_seconds() >= stop_.time_limit_seconds;
}

void StopContext::note_best(Energy energy) {
  if (energy >= best_energy_) return;
  best_energy_ = energy;
  const double now = clock_.elapsed_seconds();
  if (!reached_target_ && stop_.target_energy &&
      energy <= *stop_.target_energy) {
    reached_target_ = true;
    tts_seconds_ = now;
  }
  if (observer_) observer_->on_new_best({now, energy, work_});
}

void StopContext::stamp(SolveReport& report) const {
  report.cancelled = cancelled_;
  report.reached_target = reached_target_;
  report.tts_seconds = tts_seconds_;
  report.elapsed_seconds = clock_.elapsed_seconds();
  if (!report.reached_target && stop_.target_energy &&
      report.best_energy <= *stop_.target_energy) {
    report.reached_target = true;
    report.tts_seconds = report.elapsed_seconds;
  }
}

const QuboModel& request_model(const SolveRequest& request) {
  DABS_CHECK(request.model != nullptr, "SolveRequest carries no model");
  for (const BitVector& x : request.warm_start) {
    DABS_CHECK(x.size() == request.model->size(),
               "warm-start solution length mismatch");
  }
  return *request.model;
}

}  // namespace dabs
