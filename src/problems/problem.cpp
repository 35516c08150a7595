#include "problems/problem.hpp"

#include <sstream>
#include <utility>

namespace dabs {

ProblemBase::ProblemBase(std::string family, std::string name,
                         std::string key)
    : family_(std::move(family)),
      name_(std::move(name)),
      key_(std::move(key)) {
  if (key_.empty()) key_ = family_ + "(" + name_ + ")";
}

Energy ProblemBase::model_energy_of(
    const BitVector& x, const std::optional<Energy>& provided) const {
  return provided ? *provided : encode().energy(x);
}

void annotate_extras(const Problem& problem, const DomainSolution& solution,
                     const VerifyResult& verdict,
                     std::map<std::string, std::string>& extras) {
  extras["problem"] = problem.cache_key();
  extras["objective_name"] = solution.objective_name;
  extras["feasible"] = solution.feasible ? "true" : "false";
  if (solution.feasible) {
    extras["objective"] = std::to_string(solution.objective);
  }
  extras["verified"] = verdict.ok ? "true" : "false";
  if (!verdict.ok) extras["verify_message"] = verdict.message;
  // Small permutations ride along readably; large ones belong in a
  // --save-solution file, not a report line.
  if (!solution.assignment.empty() && solution.assignment.size() <= 64) {
    std::ostringstream os;
    for (std::size_t i = 0; i < solution.assignment.size(); ++i) {
      if (i) os << ' ';
      os << solution.assignment[i];
    }
    extras["assignment"] = os.str();
  }
}

}  // namespace dabs
