// The unified problem surface — the mirror image of core/solver.hpp for the
// *instance* side of a solve.  Every domain workload the paper evaluates
// (MaxCut §II-A/§VI-A, QAP §II-B, QASP §II-C, plus raw QUBO files)
// presents one interface:
//
//   encode()   — instance -> QuboModel, reusing the existing reductions
//                (maxcut_to_qubo, qap_to_qubo, ising_to_qubo).
//   decode()   — solution bits -> a DomainSolution carrying the *domain*
//                objective (cut weight, assignment cost + layout, Ising
//                energy) instead of the bare QUBO energy.
//   verify()   — feasibility (one-hot rows/columns) plus the
//                energy<->objective identity of the reduction (e.g.
//                E(X) = -cut(X), E(X) = C(g_X) - n p) and, for penalty
//                encodes, that the penalty is certified safe.
//   describe() — one-line human description.
//
// Concrete adapters live in problems/standard_problems.hpp; the name ->
// factory registry that fronts generators and file loaders alike is in
// problems/problem_registry.hpp (the Solver/SolverRegistry split, mirrored).
//
// Problems are immutable after construction; every method is const and safe
// to call concurrently.  encode() builds a fresh model each call — callers
// that need the model repeatedly keep their own copy (the CLI) or intern it
// in a service::ModelCache under cache_key() (the batch front end), so one
// instance is never stored twice.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "qubo/qubo_model.hpp"
#include "qubo/types.hpp"
#include "util/bit_vector.hpp"

namespace dabs {

/// A solution decoded back into domain terms.
struct DomainSolution {
  /// Domain constraints hold (always true for unconstrained families like
  /// MaxCut; one-hot rows/columns for QAP).
  bool feasible = false;

  /// The domain objective, valid when feasible: cut weight for MaxCut,
  /// assignment cost for QAP, Ising Hamiltonian for QASP, the QUBO energy
  /// itself for raw models.
  Energy objective = 0;

  /// What `objective` measures ("cut", "assignment_cost", "ising_energy",
  /// "energy").
  std::string objective_name;

  /// The QAP assignment (facility -> location).  Empty when not
  /// applicable or infeasible.
  std::vector<VarIndex> assignment;
};

/// Outcome of Problem::verify().
struct VerifyResult {
  /// Everything holds: feasibility, the energy<->objective identity, and a
  /// certified-safe penalty for penalty encodes.
  bool ok = false;
  /// Domain constraints hold (the batch/CLI "feasible" field).
  bool feasible = false;
  /// First violation, empty when ok.
  std::string message;
};

/// The interface every domain workload implements — the problem-side twin
/// of Solver.  See the file comment for the method contracts.
class Problem {
 public:
  virtual ~Problem() = default;

  /// Domain family ("maxcut", "qap", "qasp", "qubo").
  /// Several registry entries may share one family: k2000, g22, and
  /// gset-loaded instances are all "maxcut".
  virtual std::string_view family() const noexcept = 0;

  /// Instance name (e.g. "K2000", a file stem, a generator label).
  virtual const std::string& name() const noexcept = 0;

  /// Canonical "family(param=value,...)" key: two problems with equal keys
  /// are the same instance.  The batch front end keys its ModelCache on
  /// this so duplicated job specs share one stored model.
  virtual const std::string& cache_key() const noexcept = 0;

  /// Builds the QUBO encode of the instance.  A fresh model each call;
  /// callers own (and may intern) the result.
  virtual QuboModel encode() const = 0;

  /// Decodes solution bits of the encoded model back into domain terms.
  virtual DomainSolution decode(const BitVector& x) const = 0;

  /// Verifies `x`: feasibility plus the energy<->objective identity.
  /// `model_energy` is E(x) under the encoded model — pass it when a model
  /// is already at hand (an independent re-evaluation, not the solver's
  /// claim); with nullopt the problem re-encodes to compute it, which is
  /// exact but expensive for large instances.
  virtual VerifyResult verify(
      const BitVector& x,
      std::optional<Energy> model_energy = std::nullopt) const = 0;

  /// One-line human description of the instance.
  virtual std::string describe() const = 0;
};

/// Shared adapter base: stores the identity triple and the verify-through-
/// encode fallback all concrete problems use.
class ProblemBase : public Problem {
 public:
  std::string_view family() const noexcept override { return family_; }
  const std::string& name() const noexcept override { return name_; }
  const std::string& cache_key() const noexcept override { return key_; }

 protected:
  /// `key` empty derives "family(name)" — fine for programmatic use; the
  /// registry factories pass fully parameterized canonical keys.
  ProblemBase(std::string family, std::string name, std::string key);

  /// E(x) under the encode: the caller-provided value when present, a
  /// fresh encode otherwise.
  Energy model_energy_of(const BitVector& x,
                         const std::optional<Energy>& provided) const;

 private:
  std::string family_;
  std::string name_;
  std::string key_;
};

/// Folds a decode + verify outcome into report extras — the one output
/// schema the CLI and the batch front end share: "problem", "objective",
/// "objective_name", "feasible", "verified" (+ "verify_message" on
/// failure), and "assignment" for small permutations.
void annotate_extras(const Problem& problem, const DomainSolution& solution,
                     const VerifyResult& verdict,
                     std::map<std::string, std::string>& extras);

}  // namespace dabs
