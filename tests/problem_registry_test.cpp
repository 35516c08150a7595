// Tests for the unified Problem API and its registry: every generator and
// loader reachable by name, typo rejection, canonical cache keys, and —
// per problem family — encode -> solve -> decode round trips proving the
// decoded domain objective equals the model-energy identity on fixed
// seeds, with verify() catching deliberately infeasible vectors.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <set>
#include <utility>

#include "core/solve_report.hpp"
#include "core/solver_registry.hpp"
#include "io/qubo_text.hpp"
#include "problems/problem_registry.hpp"
#include "problems/standard_problems.hpp"
#include "test_helpers.hpp"

namespace dabs {
namespace {

namespace pr = problems;

SolveReport solve_with(const char* solver, const QuboModel& model,
                       std::uint64_t max_batches,
                       std::optional<Energy> target = std::nullopt,
                       std::uint64_t seed = 20230317) {
  SolveRequest req;
  req.model = &model;
  req.stop.max_batches = max_batches;
  req.stop.target_energy = target;
  req.seed = seed;
  return SolverRegistry::global().create(solver)->solve(req);
}

TEST(ProblemRegistry, ListsAllBuiltinGeneratorsAndLoaders) {
  const auto infos = ProblemRegistry::global().list();
  std::set<std::string> names;
  for (const auto& info : infos) names.insert(info.name);
  for (const char* expected :
       {"k2000", "g22", "g39", "maxcut", "qap", "qasp", "qubo", "gset",
        "qaplib"}) {
    EXPECT_TRUE(names.count(expected)) << expected;
    EXPECT_TRUE(ProblemRegistry::global().contains(expected)) << expected;
  }
  for (const auto& info : infos) {
    const bool loader = info.name == "qubo" || info.name == "gset" ||
                        info.name == "qaplib";
    EXPECT_EQ(info.takes_path, loader) << info.name;
    EXPECT_EQ(ProblemRegistry::global().is_loader(info.name), loader);
    EXPECT_FALSE(info.description.empty()) << info.name;
  }
  // Removed problems are unknown names.
  for (const char* gone : {"no-such", "tsp", "chimera"}) {
    EXPECT_FALSE(ProblemRegistry::global().contains(gone)) << gone;
  }
  EXPECT_FALSE(ProblemRegistry::global().is_loader("maxcut"));
}

TEST(ProblemRegistry, RejectsUnknownNamesAndTypoParams) {
  auto& reg = ProblemRegistry::global();
  for (const char* name : {"qapp", "tsp", "chimera"}) {
    EXPECT_THROW((void)reg.create(name), std::invalid_argument) << name;
  }
  EXPECT_THROW((void)reg.create("qap", {{"wat", "1"}}),
               std::invalid_argument);
  EXPECT_THROW((void)reg.create("maxcut", {{"weights", "huh"}}),
               std::invalid_argument);
  EXPECT_THROW((void)reg.create("qap", {{"kind", "huh"}}),
               std::invalid_argument);
  EXPECT_THROW((void)reg.create("maxcut", {{"n", "not-a-number"}}),
               std::invalid_argument);
  // Params narrowed to int32 are range-checked: a cast would wrap penalty
  // 2^32 to 0 (auto) and 2^32 + 7 to a penalty of 7.
  const std::pair<const char*, SolverOptions> too_large[] = {
      {"qap", {{"n", "6"}, {"penalty", "4294967296"}}},
      {"qap", {{"n", "6"}, {"penalty", "4294967303"}}},
      {"qap", {{"n", "6"}, {"penalty", "3000000000"}}},
      {"qap", {{"max", "4294967297"}}},
      {"qap", {{"kind", "grid"}, {"max", "2147483647"}}},
      {"qaplib:/no/such/file.dat", {{"penalty", "2147483648"}}},
      {"qasp", {{"r", "4294967312"}}},
  };
  for (const auto& [spec, params] : too_large) {
    EXPECT_THROW((void)reg.create(spec, params), std::invalid_argument)
        << spec;
  }
  try {
    (void)reg.create("qap", {{"penalty", "4294967296"}});
    ADD_FAILURE() << "penalty=4294967296 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "solver option 'penalty': 4294967296 exceeds the bound "
                 "2147483647");
  }
  // Loaders need a path; generators reject one.
  EXPECT_THROW((void)reg.create("gset"), std::invalid_argument);
  EXPECT_THROW((void)reg.create("k2000:somewhere"), std::invalid_argument);
}

TEST(ProblemRegistry, LoaderDefersTheFileReadToFirstUse) {
  // A well-formed loader spec creates even when the file is missing —
  // the read happens at encode() time, so the batch pipeline classifies
  // an unreadable path as a retryable load failure, not a spec error.
  const auto problem =
      ProblemRegistry::global().create("gset:/no/such/file.txt");
  EXPECT_EQ(problem->family(), "maxcut");
  EXPECT_NE(problem->cache_key().find("/no/such/file.txt"),
            std::string::npos);
  EXPECT_THROW((void)problem->encode(), std::exception);
}

TEST(ProblemRegistry, LoaderPathSchemeMatchesDirectReads) {
  const std::string path = ::testing::TempDir() + "/registry_model.txt";
  const QuboModel direct = testing::random_model(24, 0.4, 5, 77);
  io::write_qubo_file(path, direct);

  // Both spellings — "qubo:<path>" and the path param — load the file.
  const auto via_spec = ProblemRegistry::global().create("qubo:" + path);
  const auto via_param =
      ProblemRegistry::global().create("qubo", {{"path", path}});
  EXPECT_EQ(via_spec->cache_key(), via_param->cache_key());

  const QuboModel loaded = via_spec->encode();
  ASSERT_EQ(loaded.size(), direct.size());
  Rng rng(5);
  for (int k = 0; k < 16; ++k) {
    BitVector x(direct.size());
    for (std::size_t i = 0; i < x.size(); ++i) x.set(i, rng.next_bit());
    EXPECT_EQ(loaded.energy(x), direct.energy(x));
  }
  std::remove(path.c_str());
}

TEST(ProblemRegistry, CanonicalKeysResolveDefaultsDeterministically) {
  auto& reg = ProblemRegistry::global();
  // Equal specs render equal keys; defaults are resolved before keying.
  EXPECT_EQ(reg.create("qap")->cache_key(), reg.create("qap")->cache_key());
  EXPECT_EQ(reg.create("k2000")->cache_key(),
            reg.create("k2000", {{"seed", "2000"}})->cache_key());
  EXPECT_NE(reg.create("k2000")->cache_key(),
            reg.create("k2000", {{"seed", "1"}})->cache_key());
  // The auto QAP penalty keys as its resolved value, so "penalty=0" and
  // the explicit equal penalty dedupe to one instance.
  const auto auto_penalty = reg.create("qap");
  const auto* qap =
      dynamic_cast<const pr::QapProblem*>(auto_penalty.get());
  ASSERT_NE(qap, nullptr);
  const auto explicit_penalty = reg.create(
      "qap", {{"penalty", std::to_string(qap->penalty())}});
  EXPECT_EQ(auto_penalty->cache_key(), explicit_penalty->cache_key());
}

TEST(ProblemRegistry, MaxCutRoundTripEnergyCutIdentity) {
  const auto problem = ProblemRegistry::global().create(
      "maxcut", {{"n", "16"}, {"m", "40"}, {"seed", "161"}});
  EXPECT_EQ(problem->family(), "maxcut");
  const QuboModel model = problem->encode();
  const SolveReport r = solve_with("exhaustive", model, 0);

  const DomainSolution sol = problem->decode(r.best_solution);
  EXPECT_TRUE(sol.feasible);
  EXPECT_EQ(sol.objective_name, "cut");
  // E(X) = -cut(X): the exact optimum's cut is the negated energy.
  EXPECT_EQ(sol.objective, -r.best_energy);

  const VerifyResult ok =
      problem->verify(r.best_solution, model.energy(r.best_solution));
  EXPECT_TRUE(ok.ok);
  EXPECT_TRUE(ok.feasible);
  EXPECT_TRUE(ok.message.empty());
  // A wrong claimed energy breaks the identity.
  const VerifyResult bad = problem->verify(r.best_solution, r.best_energy + 1);
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.message.find("identity"), std::string::npos);
}

TEST(ProblemRegistry, QapRoundTripEnergyCostIdentity) {
  const auto problem = ProblemRegistry::global().create(
      "qap", {{"kind", "uniform"}, {"n", "4"}, {"seed", "171"}});
  const auto* qap = dynamic_cast<const pr::QapProblem*>(problem.get());
  ASSERT_NE(qap, nullptr);
  const QuboModel model = problem->encode();
  const SolveReport r = solve_with("exhaustive", model, 0);

  // E(X) = C(g_X) - n p at the (feasible, by the certified penalty)
  // optimum, and the decoded cost matches brute force.
  const DomainSolution sol = problem->decode(r.best_solution);
  ASSERT_TRUE(sol.feasible);
  EXPECT_EQ(sol.objective_name, "assignment_cost");
  EXPECT_EQ(r.best_energy,
            sol.objective - Energy{qap->penalty()} * Energy{4});
  EXPECT_EQ(sol.objective, pr::qap_brute_force(qap->instance()));
  EXPECT_EQ(sol.assignment.size(), 4u);

  EXPECT_TRUE(
      problem->verify(r.best_solution, model.energy(r.best_solution)).ok);

  // Deliberately infeasible vectors are caught.
  BitVector all_ones(16);
  all_ones.fill(true);
  const DomainSolution infeasible = problem->decode(all_ones);
  EXPECT_FALSE(infeasible.feasible);
  const VerifyResult verdict =
      problem->verify(all_ones, model.energy(all_ones));
  EXPECT_FALSE(verdict.ok);
  EXPECT_FALSE(verdict.feasible);
  EXPECT_NE(verdict.message.find("one-hot"), std::string::npos);
}

TEST(ProblemRegistry, QaspIsingIdentityOnRandomVectors) {
  const auto problem = ProblemRegistry::global().create(
      "qasp", {{"r", "4"}, {"m", "2"}});
  const auto* qasp = dynamic_cast<const pr::QaspProblem*>(problem.get());
  ASSERT_NE(qasp, nullptr);
  const QuboModel model = problem->encode();
  Rng rng(9);
  for (int k = 0; k < 16; ++k) {
    BitVector x(model.size());
    for (std::size_t i = 0; i < x.size(); ++i) x.set(i, rng.next_bit());
    const DomainSolution sol = problem->decode(x);
    EXPECT_TRUE(sol.feasible);
    EXPECT_EQ(sol.objective_name, "ising_energy");
    // H(S) = E(X) + offset.
    EXPECT_EQ(sol.objective, model.energy(x) + qasp->instance().offset);
    EXPECT_TRUE(problem->verify(x, model.energy(x)).ok);
  }
}

TEST(ProblemRegistry, RawQuboObjectiveIsTheEnergy) {
  const std::string path = ::testing::TempDir() + "/raw_model.txt";
  io::write_qubo_file(path, testing::random_model(16, 0.5, 4, 33));
  const auto problem = ProblemRegistry::global().create("qubo:" + path);
  const QuboModel model = problem->encode();
  const SolveReport r = solve_with("exhaustive", model, 0);
  const DomainSolution sol = problem->decode(r.best_solution);
  EXPECT_TRUE(sol.feasible);
  EXPECT_EQ(sol.objective_name, "energy");
  EXPECT_EQ(sol.objective, r.best_energy);
  EXPECT_TRUE(
      problem->verify(r.best_solution, model.energy(r.best_solution)).ok);
  EXPECT_FALSE(problem->verify(r.best_solution, r.best_energy - 1).ok);
  std::remove(path.c_str());
}

TEST(ProblemRegistry, UnderPenalizedQapEncodeIsRejected) {
  const pr::QapInstance inst = pr::make_uniform_qap(4, 9, 171, "tiny");
  // A magic-constant penalty below the certified bound builds, but
  // verify() refuses to certify anything solved on it.
  const pr::QapProblem weak(inst, 1);
  EXPECT_LT(weak.penalty(), weak.min_safe_penalty());
  const BitVector feasible = pr::encode_assignment({0, 1, 2, 3});
  const VerifyResult verdict =
      weak.verify(feasible, weak.encode().energy(feasible));
  EXPECT_FALSE(verdict.ok);
  EXPECT_TRUE(verdict.feasible);  // the vector itself is one-hot
  EXPECT_NE(verdict.message.find("under-penalized"), std::string::npos);

  // The auto penalty is exactly the exposed bound and verifies clean.
  const pr::QapProblem safe(inst);
  EXPECT_EQ(safe.penalty(), safe.min_safe_penalty());
  EXPECT_EQ(safe.penalty(), pr::min_safe_qap_penalty(inst));
  EXPECT_TRUE(safe.verify(feasible, safe.encode().energy(feasible)).ok);
}

TEST(ProblemRegistry, VerifyWithoutProvidedEnergyReEncodes) {
  // The nullopt path computes E(x) via a fresh encode — exact, if slower.
  const auto problem = ProblemRegistry::global().create(
      "maxcut", {{"n", "12"}, {"m", "20"}, {"seed", "5"}});
  BitVector x(12);
  x.set(3, true);
  x.set(8, true);
  EXPECT_TRUE(problem->verify(x).ok);
}

}  // namespace
}  // namespace dabs
