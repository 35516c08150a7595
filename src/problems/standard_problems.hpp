// Concrete Problem adapters for every domain workload in the repo, each
// wrapping an existing instance type + reduction (see problem.hpp for the
// interface contract).  The registry builds these from string params; they
// are also constructible directly for programmatic use (the examples do).
#pragma once

#include <cstdint>
#include <string>

#include "problems/maxcut.hpp"
#include "problems/problem.hpp"
#include "problems/qap.hpp"
#include "problems/qasp.hpp"

namespace dabs::problems {

/// MaxCut: E(X) = -cut(X); every bit vector is a feasible partition.
class MaxCutProblem : public ProblemBase {
 public:
  explicit MaxCutProblem(MaxCutInstance inst,
                         QuboBackend backend = QuboBackend::kAuto,
                         std::string key = "");

  QuboModel encode() const override;
  DomainSolution decode(const BitVector& x) const override;
  VerifyResult verify(const BitVector& x,
                      std::optional<Energy> model_energy) const override;
  std::string describe() const override;

  const MaxCutInstance& instance() const noexcept { return inst_; }

 private:
  MaxCutInstance inst_;
  QuboBackend backend_;
};

/// QAP one-hot encode: E(X) = C(g_X) - n p on feasible X.  verify()
/// additionally rejects encodes whose penalty is below the certified
/// min_safe_qap_penalty bound (an under-penalized encode can bury the
/// feasible optimum under infeasible vectors).
class QapProblem : public ProblemBase {
 public:
  /// `penalty` 0 selects min_safe_qap_penalty(inst).
  explicit QapProblem(QapInstance inst, Weight penalty = 0,
                      std::string key = "");

  QuboModel encode() const override;
  DomainSolution decode(const BitVector& x) const override;
  VerifyResult verify(const BitVector& x,
                      std::optional<Energy> model_energy) const override;
  std::string describe() const override;

  const QapInstance& instance() const noexcept { return inst_; }
  Weight penalty() const noexcept { return penalty_; }
  Weight min_safe_penalty() const noexcept { return min_safe_; }

 private:
  QapInstance inst_;
  Weight penalty_;
  Weight min_safe_;
};

/// QASP (paper §II-C): a random Ising model on the Pegasus working graph;
/// the objective is the Hamiltonian H(S) = E(X) + offset.
class QaspProblem : public ProblemBase {
 public:
  explicit QaspProblem(QaspParams params, std::string key = "");

  QuboModel encode() const override;
  DomainSolution decode(const BitVector& x) const override;
  VerifyResult verify(const BitVector& x,
                      std::optional<Energy> model_energy) const override;
  std::string describe() const override;

  const QaspInstance& instance() const noexcept { return inst_; }

 private:
  QaspInstance inst_;
};

/// A raw QUBO model as its own problem: the domain objective is the energy
/// itself, so the service/CLI surfaces work uniformly on plain files.
class RawQuboProblem : public ProblemBase {
 public:
  explicit RawQuboProblem(QuboModel model, std::string name = "qubo",
                          std::string key = "");

  QuboModel encode() const override;
  DomainSolution decode(const BitVector& x) const override;
  VerifyResult verify(const BitVector& x,
                      std::optional<Energy> model_energy) const override;
  std::string describe() const override;

 private:
  QuboModel model_;
};

}  // namespace dabs::problems
