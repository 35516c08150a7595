// Name -> factory registry for every Problem in the repo, mirroring the
// solver registry in core/solver_registry.hpp on the instance side.
// Factories build a problem from the same generic string options solvers
// use (SolverOptions: typed getters + typo rejection), so front ends need
// no per-domain types:
//
//   auto p = ProblemRegistry::global().create("qap", {{"kind", "grid"}});
//   QuboModel model = p->encode();
//   ... solve ...
//   DomainSolution sol = p->decode(report.best_solution);
//
// One naming scheme covers generators and file loaders alike:
//
//   "<problem>"         a generator family ("k2000", "g22", "g39",
//                       "maxcut", "qap", "qasp")
//   "<problem>:<path>"  a file loader ("qubo", "gset", "qaplib"); the path
//                       may also be passed as the "path" option.
//
// Every created problem carries a canonical cache_key() assembled from its
// resolved parameters, so equal specs dedupe in a service::ModelCache.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/solver_registry.hpp"
#include "problems/problem.hpp"

namespace dabs {

struct ProblemInfo {
  std::string name;
  std::string description;
  /// True for file-backed loaders (create() requires a path).
  bool takes_path = false;
};

class ProblemRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<Problem>(const SolverOptions&)>;

  ProblemRegistry() = default;
  ProblemRegistry(const ProblemRegistry&) = delete;
  ProblemRegistry& operator=(const ProblemRegistry&) = delete;

  /// Registers a generator factory; throws std::invalid_argument on
  /// duplicates.
  void add(std::string name, std::string description, Factory factory);

  /// Registers a file-loader factory: the factory reads the "path" option
  /// (filled in from the "name:<path>" spec form).
  void add_loader(std::string name, std::string description, Factory factory);

  bool contains(const std::string& name) const;

  /// True when `name` is a registered file loader — exactly the legacy
  /// model-format names ("qubo", "gset", "qaplib").
  bool is_loader(const std::string& name) const;

  /// Builds the problem for `spec` = "<name>" or "<name>:<path>" (the path
  /// becomes the "path" option).  Throws std::invalid_argument for unknown
  /// names and for option keys the factory did not recognize.
  std::unique_ptr<Problem> create(const std::string& spec,
                                  const SolverOptions& options = {}) const;

  /// All registered problems, sorted by name.
  std::vector<ProblemInfo> list() const;

  /// The process-wide registry, pre-populated with the built-in generators
  /// and loaders.
  static ProblemRegistry& global();

 private:
  struct Entry {
    std::string description;
    bool takes_path = false;
    Factory factory;
  };

  void add_entry(std::string name, std::string description, bool takes_path,
                 Factory factory);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

}  // namespace dabs
