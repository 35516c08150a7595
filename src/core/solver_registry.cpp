#include "core/solver_registry.hpp"

#include <charconv>
#include <limits>
#include <sstream>

#include "baseline/abs_solver.hpp"
#include "baseline/exhaustive.hpp"
#include "baseline/greedy_restart.hpp"
#include "baseline/simulated_annealing.hpp"
#include "baseline/subqubo_solver.hpp"
#include "baseline/tabu_search.hpp"
#include "core/dabs_solver.hpp"
#include "util/assert.hpp"

namespace dabs {

namespace {

[[noreturn]] void bad_option(const std::string& key, const std::string& value,
                             const char* expected) {
  std::ostringstream os;
  os << "solver option '" << key << "': cannot parse '" << value << "' as "
     << expected;
  throw std::invalid_argument(os.str());
}

}  // namespace

std::string SolverOptions::get(const std::string& key,
                               const std::string& fallback) const {
  queried_[key] = true;
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::uint64_t SolverOptions::get_u64(const std::string& key,
                                     std::uint64_t fallback) const {
  queried_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::uint64_t out = 0;
  const char* first = it->second.data();
  const char* last = first + it->second.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  if (ec != std::errc{} || ptr != last) {
    bad_option(key, it->second, "an unsigned integer");
  }
  return out;
}

std::uint64_t SolverOptions::get_u64(const std::string& key,
                                     std::uint64_t fallback,
                                     std::uint64_t max) const {
  const std::uint64_t out = get_u64(key, fallback);
  if (out > max) {
    std::ostringstream os;
    os << "solver option '" << key << "': " << out << " exceeds the bound "
       << max;
    throw std::invalid_argument(os.str());
  }
  return out;
}

double SolverOptions::get_double(const std::string& key,
                                 double fallback) const {
  queried_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  try {
    std::size_t pos = 0;
    const double out = std::stod(it->second, &pos);
    if (pos != it->second.size()) bad_option(key, it->second, "a number");
    return out;
  } catch (const std::invalid_argument&) {
    bad_option(key, it->second, "a number");
  } catch (const std::out_of_range&) {
    bad_option(key, it->second, "a number in range");
  }
}

bool SolverOptions::get_bool(const std::string& key, bool fallback) const {
  queried_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  bad_option(key, v, "a boolean (true/false)");
}

std::vector<std::string> SolverOptions::unused() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    (void)value;
    const auto it = queried_.find(key);
    if (it == queried_.end() || !it->second) out.push_back(key);
  }
  return out;
}

void SolverRegistry::add(std::string name, std::string description,
                         Factory factory) {
  DABS_CHECK(!name.empty(), "solver name must not be empty");
  DABS_CHECK(factory != nullptr, "solver factory must not be null");
  std::lock_guard lock(mu_);
  const bool inserted =
      entries_
          .emplace(std::move(name),
                   Entry{std::move(description), std::move(factory)})
          .second;
  DABS_CHECK(inserted, "duplicate solver registration");
}

bool SolverRegistry::contains(const std::string& name) const {
  std::lock_guard lock(mu_);
  return entries_.count(name) != 0;
}

std::unique_ptr<Solver> SolverRegistry::create(
    const std::string& name, const SolverOptions& options) const {
  Factory factory;
  {
    std::lock_guard lock(mu_);
    const auto it = entries_.find(name);
    if (it == entries_.end()) {
      std::ostringstream os;
      os << "unknown solver '" << name << "'; registered:";
      for (const auto& [n, e] : entries_) {
        (void)e;
        os << ' ' << n;
      }
      throw std::invalid_argument(os.str());
    }
    factory = it->second.factory;
  }
  std::unique_ptr<Solver> solver = factory(options);
  const std::vector<std::string> unknown = options.unused();
  if (!unknown.empty()) {
    std::ostringstream os;
    os << "solver '" << name << "' does not take option";
    os << (unknown.size() > 1 ? "s" : "");
    for (const std::string& k : unknown) os << " '" << k << "'";
    throw std::invalid_argument(os.str());
  }
  return solver;
}

std::vector<SolverInfo> SolverRegistry::list() const {
  std::lock_guard lock(mu_);
  std::vector<SolverInfo> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    out.push_back({name, entry.description});
  }
  return out;  // std::map iteration is already name-sorted
}

namespace {

constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();

/// Shared option decoding for the two bulk solvers (dabs, abs).
SolverConfig bulk_config(const SolverOptions& o) {
  SolverConfig cfg;
  cfg.devices = o.get_u64("devices", cfg.devices);
  // "islands" is the diversity-engine-facing alias: one island (pool +
  // host generation stream) per device, so the two knobs are one number.
  cfg.devices = o.get_u64("islands", cfg.devices);
  cfg.device.blocks = static_cast<std::uint32_t>(
      o.get_u64("blocks", cfg.device.blocks, kMaxU32));
  cfg.device.replicas = static_cast<std::uint32_t>(
      o.get_u64("replicas", cfg.device.replicas, kMaxU32));
  cfg.device.batch.search_flip_factor =
      o.get_double("s", cfg.device.batch.search_flip_factor);
  cfg.device.batch.batch_flip_factor =
      o.get_double("b", cfg.device.batch.batch_flip_factor);
  cfg.pool_capacity = o.get_u64("pool", cfg.pool_capacity);
  cfg.seed = o.get_u64("seed", cfg.seed);
  cfg.explore_prob = o.get_double("explore", cfg.explore_prob);
  cfg.migration_interval = o.get_u64("migrate", cfg.migration_interval);
  cfg.migration_count = o.get_u64("migrants", cfg.migration_count);
  // Synchronous (bit-reproducible) by default; opt into the threaded
  // host/device pipeline explicitly.  Bulk blocks (replicas > 1) gather
  // packets concurrently, so they imply threaded mode.
  cfg.mode = o.get_bool("threads", cfg.device.replicas > 1)
                 ? ExecutionMode::kThreaded
                 : ExecutionMode::kSynchronous;
  return cfg;
}

void register_builtin_solvers(SolverRegistry& reg) {
  reg.add("dabs",
          "Diverse Adaptive Bulk Search (the paper's solver) "
          "[devices/islands, blocks, replicas, pool, s, b, explore, "
          "migrate, migrants, seed, threads]",
          [](const SolverOptions& o) -> std::unique_ptr<Solver> {
            return std::make_unique<DabsSolver>(bulk_config(o));
          });
  reg.add("abs",
          "Adaptive Bulk Search predecessor: CyclicMin + mutate-crossover, "
          "no diversity [devices/islands, blocks, replicas, pool, s, b, "
          "explore, migrate, migrants, seed, threads]",
          [](const SolverOptions& o) -> std::unique_ptr<Solver> {
            return std::make_unique<AbsSolver>(bulk_config(o));
          });
  reg.add("sa",
          "Simulated annealing, geometric schedule "
          "[sweeps, t-initial, t-final, restarts, seed]",
          [](const SolverOptions& o) -> std::unique_ptr<Solver> {
            SaParams p;
            p.sweeps = o.get_u64("sweeps", p.sweeps);
            p.t_initial = o.get_double("t-initial", p.t_initial);
            p.t_final = o.get_double("t-final", p.t_final);
            p.restarts = o.get_u64("restarts", p.restarts);
            p.seed = o.get_u64("seed", p.seed);
            return std::make_unique<SimulatedAnnealing>(p);
          });
  reg.add("tabu",
          "Best-improvement tabu search with aspiration "
          "[iterations, tenure, seed]",
          [](const SolverOptions& o) -> std::unique_ptr<Solver> {
            TabuSearchParams p;
            p.iterations = o.get_u64("iterations", p.iterations);
            p.tenure = static_cast<std::uint32_t>(
                o.get_u64("tenure", p.tenure, kMaxU32));
            p.seed = o.get_u64("seed", p.seed);
            return std::make_unique<TabuSearch>(p);
          });
  reg.add("greedy-restart",
          "Multistart greedy descent [restarts, seed]",
          [](const SolverOptions& o) -> std::unique_ptr<Solver> {
            GreedyRestartParams p;
            p.restarts = o.get_u64("restarts", p.restarts);
            p.seed = o.get_u64("seed", p.seed);
            return std::make_unique<GreedyRestart>(p);
          });
  reg.add("subqubo",
          "SubQUBO hybrid: clamp + exact sub-solve + accept "
          "[subset, iterations, restarts, seed]",
          [](const SolverOptions& o) -> std::unique_ptr<Solver> {
            SubQuboParams p;
            p.subset_size = static_cast<std::uint32_t>(
                o.get_u64("subset", p.subset_size));
            p.iterations = o.get_u64("iterations", p.iterations);
            p.restarts = o.get_u64("restarts", p.restarts);
            p.seed = o.get_u64("seed", p.seed);
            return std::make_unique<SubQuboSolver>(p);
          });
  reg.add("exhaustive",
          "Exact Gray-code enumeration (n <= max-bits) [max-bits]",
          [](const SolverOptions& o) -> std::unique_ptr<Solver> {
            return std::make_unique<ExhaustiveSolver>(
                o.get_u64("max-bits", 26));
          });
}

}  // namespace

SolverRegistry& SolverRegistry::global() {
  static SolverRegistry* reg = [] {
    auto* r = new SolverRegistry();
    register_builtin_solvers(*r);
    return r;
  }();
  return *reg;
}

}  // namespace dabs
