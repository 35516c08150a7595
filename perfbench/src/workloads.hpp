// The benchmark's workloads and the metric catalogue they report into.
//
// Each workload function runs one measured run (untraced: end-to-end
// metrics; traced: per-layer metrics from spans recorded around the
// library calls) and returns its ledger plus the metrics it measured by
// name.  main.cpp prints every catalogue entry, so a layer a workload does
// not touch reads 0.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_file;  // Chrome trace JSON of a traced run
  std::vector<std::pair<std::string, std::string>> environment;
};

struct RunOutcome {
  OpLedger ledger;
  std::map<std::string, double> metrics;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

inline constexpr MetricDef kEndToEndMetrics[] = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
};

inline constexpr MetricDef kPerLayerMetrics[] = {
    {"search.batch_us", "us"},
    {"search.flips", "count"},
    {"search.flips_per_s", "1/s"},
    {"search.self_share", "ratio"},
    {"search.bytes_per_flip", "B"},
    {"search.bulk_batch_us", "us"},
    {"search.lane_flips_per_s", "1/s"},
    {"device.non_kernel_share", "ratio"},
    {"evolve.next_packet_us", "us"},
    {"evolve.accept_result_us", "us"},
    {"evolve.migrate_us", "us"},
    {"evolve.restart_us", "us"},
    {"evolve.self_share", "ratio"},
    {"evolve.accept_ratio", "ratio"},
    {"evolve.migrations", "count"},
    {"evolve.restarts", "count"},
    {"core.batches", "count"},
    {"core.solve_ms", "ms"},
    {"core.batches_per_s", "1/s"},
    {"problems.encode_ms", "ms"},
    {"problems.verify_ms", "ms"},
    {"net.post_p50_ms", "ms"},
    {"net.post_miss_p50_ms", "ms"},
    {"net.get_p50_ms", "ms"},
    {"net.polls_per_job", "count"},
    {"service.queue_p50_ms", "ms"},
    {"service.run_p50_ms", "ms"},
    {"service.cache_hit_ratio", "ratio"},
    {"trace.overhead", "ratio"},
};

/// Set-up runs at least kMinSetupRepeats times, and more while the
/// repeats so far took under kSetupSeconds (up to kMaxSetupRepeats), so a
/// fast set-up's median rests on many samples; setup_s is their median.
inline constexpr int kMinSetupRepeats = 5;
inline constexpr int kMaxSetupRepeats = 99;
inline constexpr double kSetupSeconds = 2.0;

/// True while another set-up repeat should run.
inline bool more_setup(int done, double spent_seconds) {
  if (done < kMinSetupRepeats) return true;
  return done < kMaxSetupRepeats && spent_seconds < kSetupSeconds;
}
/// Operations an untraced run completes at least, so its p90 has ten
/// samples beyond it.
inline constexpr std::size_t kMinOps = 100;
/// A run that has not reached its minimum operation count this long after
/// its measured window ends gives up (and reports the shortfall).
inline constexpr double kGraceSeconds = 60.0;

/// True while an untraced measured loop should start another operation.
inline bool keep_running(double elapsed, std::size_t ops,
                         const RunOptions& opt) {
  if (elapsed >= opt.seconds + kGraceSeconds) return false;
  return elapsed < opt.seconds || ops < kMinOps;
}

/// Seed of operation `i` under workload seed `seed` (splitmix64 mix), so
/// one seed always replays the same operations.
inline std::uint64_t op_seed(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + i + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// k2000-tts, qasp-islands, k2000-bulk.
RunOutcome run_solver_workload(const RunOptions& opt);
/// Target calibration: runs `trials` solves of a solver workload to its
/// batch cap and prints, per candidate target energy, how many trials
/// reach it and their median batches to it.
void calibrate_solver_workload(const std::string& workload,
                               std::uint64_t seed, std::size_t trials);
/// service-http.
RunOutcome run_http_workload(const RunOptions& opt);

/// Thrown when the traced replay disagrees with Solver::solve.
struct ReplayMismatch : std::runtime_error {
  using std::runtime_error::runtime_error;
};

}  // namespace perfbench
