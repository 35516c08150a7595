#include "evolve/diversity_engine.hpp"

#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace dabs {
namespace {

// Static handles per call site: registration happens once, hot-path updates
// are relaxed atomics (the idiom used across the obs layer).
struct EvolveCounters {
  obs::Counter& generated;
  obs::Counter& accepted;
  obs::Counter& migrations;
  obs::Counter& restarts;

  static EvolveCounters& get() {
    auto& m = obs::MetricsRegistry::global();
    static EvolveCounters c{
        m.counter("dabs_evolve_batches_total",
                  "Target packets generated by the diversity engine."),
        m.counter("dabs_evolve_accepted_total",
                  "Device results accepted into a solution pool."),
        m.counter("dabs_evolve_migrations_total",
                  "Pool entries migrated to a ring neighbor."),
        m.counter("dabs_evolve_restarts_total",
                  "Merged-ring restarts of all pools.")};
    return c;
  }
};

struct DiversityHistograms {
  obs::Histogram& entropy;
  obs::Histogram& min_hamming;

  static DiversityHistograms& get() {
    auto& m = obs::MetricsRegistry::global();
    static DiversityHistograms h{
        m.histogram("dabs_evolve_pool_entropy",
                    "Per-bit pool entropy at report time (0..1).",
                    {0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}),
        m.histogram(
            "dabs_evolve_pool_min_hamming",
            "Minimum pairwise Hamming distance across pools at report time.",
            obs::Histogram::exponential_bounds(1.0, 2.0, 12))};
    return h;
  }
};

std::string format_fraction(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

void EngineConfig::validate() const {
  if (islands == 0) {
    throw std::invalid_argument("diversity engine needs at least one island");
  }
  if (pool_capacity == 0) {
    throw std::invalid_argument("pool capacity must be positive");
  }
  if (algorithms.empty()) {
    throw std::invalid_argument("diversity engine needs >= 1 algorithm");
  }
  if (operations.empty()) {
    throw std::invalid_argument("diversity engine needs >= 1 operation");
  }
  if (explore_prob < 0.0 || explore_prob > 1.0) {
    throw std::invalid_argument("explore_prob must be in [0, 1]");
  }
  if (migration_interval > 0 && migration_count == 0) {
    throw std::invalid_argument(
        "migration enabled but migration_count is zero");
  }
}

DiversityEngine::DiversityEngine(EngineConfig cfg, std::size_t bits,
                                 MersenneSeeder& seeder)
    : cfg_(std::move(cfg)),
      bits_(bits),
      ring_((cfg_.validate(), cfg_.islands), cfg_.pool_capacity, bits, seeder),
      selector_(cfg_.algorithms, cfg_.operations, cfg_.explore_prob),
      restart_seeder_(seeder.next_seed()),
      generated_(cfg_.islands, 0),
      last_migration_(cfg_.islands, 0) {
  DABS_CHECK(bits > 0, "diversity engine needs at least one bit");
}

Packet DiversityEngine::next_packet(std::size_t island, Rng& rng) {
  Packet p = build_packet(island, select(island, rng), rng);
  count_packet(p);
  return p;
}

PacketChoice DiversityEngine::select(std::size_t island, Rng& rng) const {
  DABS_CHECK(island < ring_.pool_count(), "island index out of range");
  const SolutionPool& pool = ring_.pool(island);
  PacketChoice c;
  c.algo = selector_.select_algorithm(pool, rng);
  c.op = selector_.select_operation(pool, rng);
  return c;
}

Packet DiversityEngine::build_packet(std::size_t island, PacketChoice choice,
                                     Rng& rng) {
  DABS_CHECK(island < ring_.pool_count(), "island index out of range");
  const SolutionPool* neighbor =
      ring_.pool_count() > 1 ? &ring_.neighbor(island) : nullptr;
  Packet p;
  p.algo = choice.algo;
  p.op = choice.op;
  p.solution = apply_genetic_op(p.op, bits_, ring_.pool(island), neighbor,
                                rng, cfg_.op_params);
  p.energy = kInfiniteEnergy;
  p.pool_index = static_cast<std::uint32_t>(island);
  ++generated_[island];
  return p;
}

void DiversityEngine::count_packet(const Packet& p) {
  stats_.record_batch(p.algo, p.op);
  generated_total_.fetch_add(1, std::memory_order_relaxed);
  EvolveCounters::get().generated.inc();
}

bool DiversityEngine::migration_due(std::size_t island) const {
  DABS_CHECK(island < ring_.pool_count(), "island index out of range");
  return cfg_.migration_interval != 0 && ring_.pool_count() >= 2 &&
         generated_[island] - last_migration_[island] >=
             cfg_.migration_interval;
}

bool DiversityEngine::accept_result(const Packet& p) {
  DABS_CHECK(p.pool_index < ring_.pool_count(), "result pool out of range");
  PoolEntry e;
  e.solution = p.solution;
  e.energy = p.energy;
  e.algo = p.algo;
  e.op = p.op;
  const bool accepted = ring_.pool(p.pool_index).insert(std::move(e));
  if (accepted) {
    accepted_total_.fetch_add(1, std::memory_order_relaxed);
    op_wins_[static_cast<std::size_t>(p.op)].fetch_add(
        1, std::memory_order_relaxed);
    algo_wins_[static_cast<std::size_t>(p.algo)].fetch_add(
        1, std::memory_order_relaxed);
    EvolveCounters::get().accepted.inc();
  }
  return accepted;
}

bool DiversityEngine::inject(const BitVector& solution, Energy energy,
                             std::size_t island) {
  DABS_CHECK(island < ring_.pool_count(), "island index out of range");
  PoolEntry e;
  e.solution = solution;
  e.energy = energy;
  e.algo = MainSearch::kMaxMin;
  e.op = GeneticOp::kBest;  // externally supplied elites read as "best"
  return ring_.pool(island).insert(std::move(e));
}

std::size_t DiversityEngine::maybe_migrate(
    std::size_t island, const std::function<bool()>& cancelled) {
  if (!migration_due(island)) return 0;
  last_migration_[island] = generated_[island];

  // Entry-by-entry transfer (rather than IslandRing::migrate's one-shot
  // copy) so a stop request lands between entries, not after the batch.
  SolutionPool& dst = ring_.neighbor(island);
  std::size_t accepted = 0;
  for (PoolEntry& e :
       ring_.pool(island).best_entries(cfg_.migration_count)) {
    if (cancelled && cancelled()) break;
    if (dst.insert(std::move(e))) ++accepted;
  }
  if (accepted > 0) {
    migrations_.fetch_add(accepted, std::memory_order_relaxed);
    EvolveCounters::get().migrations.inc(accepted);
  }
  return accepted;
}

bool DiversityEngine::check_restart() {
  if (!cfg_.restart_on_merge || !ring_.merged()) return false;
  std::lock_guard lock(restart_mu_);
  if (!ring_.merged()) return false;  // another thread restarted first
  ring_.restart_all(restart_seeder_);
  restarts_.fetch_add(1, std::memory_order_relaxed);
  EvolveCounters::get().restarts.inc();
  return true;
}

void DiversityEngine::note_improvement(double at_seconds, Energy energy,
                                       MainSearch algo, GeneticOp op) {
  stats_.record_improvement(at_seconds, energy, algo, op);
}

PoolDiversity DiversityEngine::diversity() const {
  std::vector<BitVector> all;
  for (std::size_t i = 0; i < ring_.pool_count(); ++i) {
    std::vector<BitVector> s = ring_.pool(i).evaluated_solutions();
    all.insert(all.end(), std::make_move_iterator(s.begin()),
               std::make_move_iterator(s.end()));
  }
  return measure_diversity(all, bits_);
}

void DiversityEngine::fill_extras(
    std::map<std::string, std::string>& extras) const {
  const PoolDiversity d = diversity();
  extras["pool_entries"] = std::to_string(d.entries);
  extras["pool_min_hamming"] = std::to_string(d.min_hamming);
  extras["pool_mean_hamming"] = format_fraction(d.mean_hamming);
  extras["pool_entropy"] = format_fraction(d.entropy);
  extras["islands"] = std::to_string(ring_.pool_count());
  extras["migrations"] = std::to_string(migrations());
  extras["pool_restarts"] = std::to_string(restarts());
  extras["packets_generated"] = std::to_string(generated());
  extras["packets_accepted"] = std::to_string(accepted());

  const RunStatsSnapshot snap = stats_.snapshot();
  MainSearch finder_algo;
  GeneticOp finder_op;
  if (snap.first_finder(finder_algo, finder_op)) {
    extras["first_finder_algo"] = to_string(finder_algo);
    extras["first_finder_op"] = to_string(finder_op);
  }
  extras["improvements"] = std::to_string(snap.improvements.size());
  for (MainSearch s : cfg_.algorithms) {
    extras["freq_algo_" + std::string(to_string(s))] =
        format_fraction(snap.algo_fraction(s));
    extras["win_algo_" + std::string(to_string(s))] = std::to_string(
        algo_wins_[static_cast<std::size_t>(s)].load(
            std::memory_order_relaxed));
  }
  for (GeneticOp op : cfg_.operations) {
    extras["freq_op_" + std::string(to_string(op))] =
        format_fraction(snap.op_fraction(op));
    extras["win_op_" + std::string(to_string(op))] = std::to_string(
        op_wins_[static_cast<std::size_t>(op)].load(
            std::memory_order_relaxed));
  }

  if (d.entries > 0) {
    auto& h = DiversityHistograms::get();
    h.entropy.observe(d.entropy);
    h.min_hamming.observe(double(d.min_hamming));
  }
}

}  // namespace dabs
