#include "problems/standard_problems.hpp"

#include <sstream>
#include <utility>

#include "qubo/conversion.hpp"
#include "util/assert.hpp"

namespace dabs::problems {

namespace {

std::string identity_mismatch(const char* identity, Energy actual,
                              Energy expected) {
  std::ostringstream os;
  os << "energy<->objective identity " << identity << " violated: E(X) = "
     << actual << ", expected " << expected;
  return os.str();
}

}  // namespace

// ---- MaxCut --------------------------------------------------------------

MaxCutProblem::MaxCutProblem(MaxCutInstance inst, QuboBackend backend,
                             std::string key)
    : ProblemBase("maxcut", inst.name, std::move(key)),
      inst_(std::move(inst)),
      backend_(backend) {}

QuboModel MaxCutProblem::encode() const {
  return maxcut_to_qubo(inst_, backend_);
}

DomainSolution MaxCutProblem::decode(const BitVector& x) const {
  DomainSolution sol;
  sol.feasible = true;  // every bit vector is a partition
  sol.objective = inst_.cut_value(x);
  sol.objective_name = "cut";
  return sol;
}

VerifyResult MaxCutProblem::verify(
    const BitVector& x, std::optional<Energy> model_energy) const {
  VerifyResult v;
  v.feasible = true;
  const Energy e = model_energy_of(x, model_energy);
  const Energy cut = inst_.cut_value(x);
  if (e != -cut) {
    v.message = identity_mismatch("E(X) = -cut(X)", e, -cut);
    return v;
  }
  v.ok = true;
  return v;
}

std::string MaxCutProblem::describe() const {
  std::ostringstream os;
  os << "MaxCut " << name() << ": " << inst_.n << " nodes, "
     << inst_.edge_count() << " edges";
  return os.str();
}

// ---- QAP -----------------------------------------------------------------

QapProblem::QapProblem(QapInstance inst, Weight penalty, std::string key)
    : ProblemBase("qap", inst.name, std::move(key)),
      inst_(std::move(inst)),
      min_safe_(min_safe_qap_penalty(inst_)) {
  penalty_ = penalty == 0 ? min_safe_ : penalty;
  DABS_CHECK(penalty_ > 0, "penalty must be positive");
}

QuboModel QapProblem::encode() const {
  return qap_to_qubo(inst_, penalty_).model;
}

DomainSolution QapProblem::decode(const BitVector& x) const {
  DomainSolution sol;
  sol.objective_name = "assignment_cost";
  const auto g = decode_assignment(x, inst_.n);
  if (!g) return sol;  // a row or column without exactly one 1
  sol.feasible = true;
  sol.objective = inst_.cost(*g);
  sol.assignment = *g;
  return sol;
}

VerifyResult QapProblem::verify(const BitVector& x,
                                std::optional<Energy> model_energy) const {
  VerifyResult v;
  const DomainSolution sol = decode(x);
  v.feasible = sol.feasible;
  if (penalty_ < min_safe_) {
    std::ostringstream os;
    os << "under-penalized encode: penalty " << penalty_
       << " is below the certified bound " << min_safe_
       << " (infeasible vectors may undercut the feasible optimum)";
    v.message = os.str();
    return v;
  }
  if (!v.feasible) {
    v.message =
        "solution is not one-hot feasible (a row or column without exactly "
        "one 1)";
    return v;
  }
  const Energy e = model_energy_of(x, model_energy);
  const Energy expected =
      sol.objective - Energy{penalty_} * Energy(inst_.n);
  if (e != expected) {
    v.message = identity_mismatch("E(X) = C(g_X) - n p", e, expected);
    return v;
  }
  v.ok = true;
  return v;
}

std::string QapProblem::describe() const {
  std::ostringstream os;
  os << "QAP " << name() << ": n = " << inst_.n << " (" << inst_.n * inst_.n
     << " one-hot variables), penalty " << penalty_ << " (certified >= "
     << min_safe_ << ")";
  return os.str();
}

// ---- QASP ----------------------------------------------------------------

namespace {

std::string qasp_name(const QaspParams& p) {
  std::ostringstream os;
  os << 'P' << p.pegasus_m << "-r" << p.resolution;
  return os.str();
}

}  // namespace

QaspProblem::QaspProblem(QaspParams params, std::string key)
    : ProblemBase("qasp", qasp_name(params), std::move(key)),
      inst_(make_qasp(params)) {}

QuboModel QaspProblem::encode() const { return inst_.qubo; }

DomainSolution QaspProblem::decode(const BitVector& x) const {
  DomainSolution sol;
  sol.feasible = true;  // every spin vector is a valid Ising state
  sol.objective = inst_.ising.hamiltonian(to_spins(x));
  sol.objective_name = "ising_energy";
  return sol;
}

VerifyResult QaspProblem::verify(const BitVector& x,
                                 std::optional<Energy> model_energy) const {
  VerifyResult v;
  v.feasible = true;
  const Energy e = model_energy_of(x, model_energy);
  const Energy h = inst_.ising.hamiltonian(to_spins(x));
  if (h != e + inst_.offset) {
    v.message = identity_mismatch("H(S) = E(X) + offset", e, h - inst_.offset);
    return v;
  }
  v.ok = true;
  return v;
}

std::string QaspProblem::describe() const {
  std::ostringstream os;
  os << "QASP r=" << inst_.resolution << " on " << inst_.nodes
     << " Pegasus qubits, " << inst_.edge_count << " couplers";
  return os.str();
}

// ---- Raw QUBO ------------------------------------------------------------

RawQuboProblem::RawQuboProblem(QuboModel model, std::string name,
                               std::string key)
    : ProblemBase("qubo", std::move(name), std::move(key)),
      model_(std::move(model)) {}

QuboModel RawQuboProblem::encode() const { return model_; }

DomainSolution RawQuboProblem::decode(const BitVector& x) const {
  DomainSolution sol;
  sol.feasible = true;
  sol.objective = model_.energy(x);
  sol.objective_name = "energy";
  return sol;
}

VerifyResult RawQuboProblem::verify(
    const BitVector& x, std::optional<Energy> model_energy) const {
  VerifyResult v;
  v.feasible = true;
  const Energy e = model_energy_of(x, model_energy);
  const Energy own = model_.energy(x);
  if (e != own) {
    v.message = identity_mismatch("E(X) = E(X)", e, own);
    return v;
  }
  v.ok = true;
  return v;
}

std::string RawQuboProblem::describe() const {
  return "Raw " + model_.describe() + " (" + name() + ")";
}

}  // namespace dabs::problems
