// Shared infrastructure for the table/figure reproduction benches.
//
// Scaling: the paper's campaigns (1,000 executions on 8 A100s) are far
// beyond a single-core CI budget, so each bench defaults to a reduced
// instance size and trial count whose *shape* (who wins, relative TTS,
// frequency patterns) mirrors the paper, and scales up via:
//
//   DABS_BENCH_SCALE=<float>   multiplies trial counts / time limits (def 1)
//   DABS_BENCH_FULL=1          switches to the paper's full instance sizes
//
// Protocol for "potentially optimal" reference values (paper §I-B): the
// best energy any solver ever attains within the bench becomes the row's
// reference.  Campaign TTS/success statistics are measured against the
// pre-pass reference (the runs before the campaigns); a `ref_beaten`
// cell and metric mark rows where a campaign beat it.
// JSON emission (the tracked paper harness): when DABS_BENCH_JSON names a
// file, each bench writes its headline metrics and table rows there via
// JsonSink; bench/run_paper.sh merges the per-suite files into
// BENCH_paper.json so the reproduction-quality trajectory accumulates run
// over run, exactly like the micro benches' BENCH_micro.json.
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/dabs_solver.hpp"
#include "core/solver.hpp"
#include "core/solver_registry.hpp"
#include "io/json_writer.hpp"
#include "io/results_writer.hpp"
#include "qubo/qubo_model.hpp"

namespace dabs::bench {

inline double scale() {
  if (const char* s = std::getenv("DABS_BENCH_SCALE")) {
    const double v = std::atof(s);
    if (v > 0) return v;
  }
  return 1.0;
}

inline bool full_size() {
  const char* s = std::getenv("DABS_BENCH_FULL");
  return s != nullptr && std::string(s) != "0";
}

/// Trial count scaled by DABS_BENCH_SCALE (at least 1).
inline std::size_t trials(std::size_t base) {
  const auto t = static_cast<std::size_t>(double(base) * scale());
  return t > 0 ? t : 1;
}

/// Baseline solver config shared by the benches (paper §VI defaults:
/// 100-packet pools, tabu 8; devices/blocks shrunk to CPU scale).
inline SolverConfig bench_config(std::uint64_t seed, double s_factor,
                                 double b_factor) {
  SolverConfig c;
  c.devices = 2;
  c.device.blocks = 2;
  c.device.batch.search_flip_factor = s_factor;
  c.device.batch.batch_flip_factor = b_factor;
  c.device.batch.tabu_tenure = 8;
  c.pool_capacity = 100;
  c.mode = ExecutionMode::kSynchronous;
  c.seed = seed;
  return c;
}

/// The registry-option spelling of bench_config() without a seed: the
/// paper benches construct their solvers through SolverRegistry so the
/// harness exercises the exact surface the CLI and server expose.
/// Campaign solvers take this form, since run_campaign() gives every trial
/// a seed derived from the campaign request's.
inline SolverOptions bulk_options(double s_factor, double b_factor) {
  return SolverOptions{{"devices", "2"},
                       {"blocks", "2"},
                       {"pool", "100"},
                       {"s", std::to_string(s_factor)},
                       {"b", std::to_string(b_factor)}};
}

/// bulk_options() for a single seeded run.
inline SolverOptions bulk_options(std::uint64_t seed, double s_factor,
                                  double b_factor) {
  SolverOptions opts = bulk_options(s_factor, b_factor);
  opts.set("seed", std::to_string(seed));
  return opts;
}

/// Registry construction, by the same path as `dabs-cli --solver`.
inline std::unique_ptr<Solver> make_solver(const std::string& name,
                                           const SolverOptions& opts) {
  return SolverRegistry::global().create(name, opts);
}

/// One registry-driven solve through the unified request protocol.
inline SolveReport solve_on(Solver& solver, const QuboModel& model,
                            const StopCondition& stop) {
  SolveRequest req;
  req.model = &model;
  req.stop = stop;
  return solver.solve(req);
}

/// The per-trial request of a bench campaign: `seed` is the prototype
/// seed the runner derives every trial's seed from, and each trial stops
/// at the campaign's target or after `time_budget` seconds.
inline SolveRequest campaign_request(const QuboModel& model,
                                     double time_budget, std::uint64_t seed) {
  SolveRequest req;
  req.model = &model;
  req.stop.time_limit_seconds = time_budget;
  req.seed = seed;
  return req;
}

/// Collects a bench's headline metrics and table rows, then writes them as
/// one JSON object to the DABS_BENCH_JSON path on flush/destruction (no-op
/// when the variable is unset — interactive runs just print tables).
class JsonSink {
 public:
  explicit JsonSink(std::string suite) : suite_(std::move(suite)) {}
  ~JsonSink() { flush(); }

  JsonSink(const JsonSink&) = delete;
  JsonSink& operator=(const JsonSink&) = delete;

  void metric(const std::string& name, double value) {
    metrics_.emplace_back(name, value);
  }

  /// One table row as ordered (column, cell) pairs.
  void row(std::vector<std::pair<std::string, std::string>> cells) {
    rows_.push_back(std::move(cells));
  }

  void flush() {
    if (flushed_) return;
    flushed_ = true;
    const char* path = std::getenv("DABS_BENCH_JSON");
    if (path == nullptr || *path == '\0') return;
    std::ofstream out(path);
    if (!out) {
      std::cerr << "JsonSink: cannot open " << path << "\n";
      return;
    }
    io::JsonWriter json(out);
    json.begin_object();
    json.value("suite", suite_);
    json.value("scale", scale());
    json.value("full_size", full_size());
    json.begin_object("metrics");
    for (const auto& [k, v] : metrics_) json.value(k, v);
    json.end_object();
    json.begin_array("rows");
    for (const auto& cells : rows_) {
      json.begin_object();
      for (const auto& [k, v] : cells) json.value(k, v);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }

 private:
  std::string suite_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
  bool flushed_ = false;
};

inline void note(const std::string& msg) { std::cout << msg << "\n"; }

inline void print_banner(const std::string& title) {
  std::cout << "\n" << std::string(72, '=') << "\n"
            << title << "\n"
            << "scale=" << scale() << (full_size() ? " FULL" : " reduced")
            << " (set DABS_BENCH_FULL=1 / DABS_BENCH_SCALE=<f> to grow)\n"
            << std::string(72, '=') << "\n";
}

}  // namespace dabs::bench
