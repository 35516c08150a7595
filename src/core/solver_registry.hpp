// Name -> factory registry for every Solver in the repo, mirroring the
// search-algorithm registry in search/registry.hpp one level up the stack.
// Factories build a solver from generic string options so front ends (CLI,
// config files, future RPC surfaces) need no per-solver types:
//
//   auto solver = SolverRegistry::global().create("tabu", {{"tenure", "8"}});
//   SolveRequest req;
//   req.model = &model;
//   req.stop.time_limit_seconds = 5.0;
//   SolveReport report = solver->solve(req);
//
// The global registry ships with seven solvers: the paper's dabs and its
// abs predecessor, the baselines its tables run (sa, tabu, greedy-restart,
// subqubo), and the exhaustive enumerator they are checked against.
#pragma once

#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/solver.hpp"

namespace dabs {

/// String key/value options handed to a solver factory.  Typed getters
/// convert with readable errors; reads are tracked so the registry can
/// reject misspelled keys after the factory ran.
class SolverOptions {
 public:
  SolverOptions() = default;
  SolverOptions(
      std::initializer_list<std::pair<const std::string, std::string>> kv)
      : values_(kv) {}

  void set(const std::string& key, std::string value) {
    values_[key] = std::move(value);
  }
  bool has(const std::string& key) const {
    return values_.count(key) != 0;
  }

  /// Typed getters; `fallback` when the key is absent.  Throw
  /// std::invalid_argument on malformed values.
  std::string get(const std::string& key, const std::string& fallback) const;
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const;
  /// get_u64 for options narrowed to a smaller type: also throws
  /// std::invalid_argument, naming the bound, when the value exceeds `max`.
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback,
                        std::uint64_t max) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Keys that were set but never read by a factory — typo detection.
  std::vector<std::string> unused() const;

  const std::map<std::string, std::string>& values() const noexcept {
    return values_;
  }

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
};

struct SolverInfo {
  std::string name;
  std::string description;
};

class SolverRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<Solver>(const SolverOptions&)>;

  SolverRegistry() = default;
  SolverRegistry(const SolverRegistry&) = delete;
  SolverRegistry& operator=(const SolverRegistry&) = delete;

  /// Registers a factory; throws std::invalid_argument on duplicates.
  void add(std::string name, std::string description, Factory factory);

  bool contains(const std::string& name) const;

  /// Builds the named solver.  Throws std::invalid_argument for unknown
  /// names and for option keys the factory did not recognize.
  std::unique_ptr<Solver> create(const std::string& name,
                                 const SolverOptions& options = {}) const;

  /// All registered solvers, sorted by name.
  std::vector<SolverInfo> list() const;

  /// The process-wide registry, pre-populated with the eight built-ins.
  static SolverRegistry& global();

 private:
  struct Entry {
    std::string description;
    Factory factory;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

}  // namespace dabs
