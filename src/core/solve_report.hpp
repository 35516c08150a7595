// Unified result type returned by every Solver — the single report the
// CLI, campaigns, and the service layer consume.  A solver fills the work
// counters that apply (batches and restarts for the bulk solvers, flips
// for the baselines) and leaves the rest zero.  Anything solver-specific
// beyond that travels in `extras`, a small string key/value map emitted
// verbatim into the JSON report.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "qubo/types.hpp"
#include "util/bit_vector.hpp"

namespace dabs::io {
class JsonWriter;
}  // namespace dabs::io

namespace dabs {

struct SolveReport {
  /// Registry name of the solver that produced this report.
  std::string solver;

  BitVector best_solution;
  Energy best_energy = kInfiniteEnergy;

  /// Target-energy protocol (the paper's TTS measurement).
  bool reached_target = false;
  /// Seconds from start until the target energy was first attained
  /// (meaningful only when reached_target).
  double tts_seconds = 0.0;
  double elapsed_seconds = 0.0;

  /// Work counters; a solver fills the ones that apply.  Every solver
  /// counts single-bit flips (the bulk solvers sum them over their batch
  /// searches); the bulk solvers also count batches and restarts of the
  /// merged island ring.
  std::uint64_t flips = 0;
  std::uint64_t batches = 0;
  std::uint32_t restarts = 0;

  /// True when the run ended because the request's StopToken fired.
  bool cancelled = false;

  /// Per-solver extras for the JSON report (e.g. "first_finder_algo" for
  /// dabs, "sweeps" for sa).  Ordered map: deterministic output.
  std::map<std::string, std::string> extras;

  /// Emits the report as one JSON object into an already-open writer
  /// position (top level or after a key inside an object).
  void write_json(io::JsonWriter& json, const std::string& key = "") const;

  /// Multi-line human rendering (the CLI's text output).
  std::string to_string() const;
};

/// Relative gap of `found` above a reference optimum, as the paper reports
/// it (both energies negative; gap = (found - ref) / |ref|).
double energy_gap(Energy found, Energy reference);

}  // namespace dabs
