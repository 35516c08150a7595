// The diversity engine: the GA core of DABS (paper §IV) packaged as one
// subsystem.  It owns the island ring of solution pools, the adaptive
// 95 %/5 % algorithm/operation selector, the run statistics, and the
// (optional, beyond-paper) island migration — everything between "a device
// returned a packet" and "here is the next target to search from".
//
// The engine is deliberately solver-agnostic: DabsSolver drives it through
// next_packet / accept_result, but the same surface serves the synchronous
// round-robin loop, the threaded host pool, and tests that exercise the GA
// in isolation.  Thread model: next_packet(i, ...) and maybe_migrate(i, ...)
// are called only by island i's host thread; accept_result / inject /
// check_restart / all observers may be called from any thread.  The
// synchronous driver calls everything from one thread and splits
// next_packet into select / build_packet / count_packet, so it can tell
// which pools a packet reads before reading them.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/run_stats.hpp"
#include "device/packet.hpp"
#include "evolve/adaptive_selector.hpp"
#include "evolve/diversity.hpp"
#include "evolve/genetic_ops.hpp"
#include "evolve/island_ring.hpp"
#include "rng/seeder.hpp"

namespace dabs {

struct EngineConfig {
  /// One island (pool + host generation stream) per device.
  std::size_t islands = 2;
  std::size_t pool_capacity = 100;

  /// Adaptive-selection diversity (paper defaults: 5 algorithms, 8 ops).
  std::vector<MainSearch> algorithms{kAllMainSearches.begin(),
                                     kAllMainSearches.end()};
  std::vector<GeneticOp> operations{kDabsGeneticOps.begin(),
                                    kDabsGeneticOps.end()};
  double explore_prob = 0.05;
  GeneticOpParams op_params;

  /// Restart every pool when the ring has merged (paper §IV-B).
  bool restart_on_merge = true;

  /// Ring migration cadence in generated packets per island; 0 disables
  /// (the paper's configuration — mixing happens through Xrossover only).
  std::uint64_t migration_interval = 0;
  /// Best entries copied to the ring neighbor per migration event.
  std::size_t migration_count = 1;

  /// Throws std::invalid_argument on inconsistent settings.
  void validate() const;
};

/// The adaptive selector's draw for one packet.
struct PacketChoice {
  MainSearch algo;
  GeneticOp op;
};

class DiversityEngine {
 public:
  /// `seeder` supplies one RNG per pool for initialization plus the
  /// engine's private restart seed; the caller's seeder advances by
  /// islands + 1 draws, keeping whole-run determinism in one place.
  DiversityEngine(EngineConfig cfg, std::size_t bits, MersenneSeeder& seeder);

  std::size_t islands() const noexcept { return ring_.pool_count(); }
  std::size_t bits() const noexcept { return bits_; }
  const EngineConfig& config() const noexcept { return cfg_; }

  IslandRing& ring() noexcept { return ring_; }
  const IslandRing& ring() const noexcept { return ring_; }

  /// Generates the next target packet for island `island`: adaptive
  /// algorithm/operation selection, genetic operation application (with the
  /// ring neighbor as Xrossover partner), batch accounting.  The same as
  /// build_packet(island, select(island, rng), rng) then count_packet().
  Packet next_packet(std::size_t island, Rng& rng);

  /// The adaptive (algorithm, operation) draw for island `island`'s next
  /// packet.  Reads only that island's pool.
  PacketChoice select(std::size_t island, Rng& rng) const;

  /// Applies `choice.op` to island `island`'s pool (Xrossover also reads
  /// the ring neighbor's pool) and advances the island's generation count,
  /// which paces its migration.  Draws from `rng` after select() did.
  Packet build_packet(std::size_t island, PacketChoice choice, Rng& rng);

  /// Counts a built packet in the batch statistics (freq_algo_*,
  /// freq_op_*, packets_generated).  A driver that drops built packets
  /// unsearched counts only the ones it keeps.
  void count_packet(const Packet& p);

  /// True when maybe_migrate(island) would migrate now: migration is on
  /// and the island's generation count has crossed the interval.
  bool migration_due(std::size_t island) const;

  /// Inserts a device result into its island's pool.  Returns true when the
  /// pool accepted it (a "win" for the producing algorithm/operation).
  bool accept_result(const Packet& p);

  /// Seeds island `island` with an externally evaluated solution (warm
  /// starts, replay).  Returns true when the pool accepted it.
  bool inject(const BitVector& solution, Energy energy, std::size_t island);

  /// Ring migration for island `island` when its generation counter has
  /// crossed the configured interval.  `cancelled` is polled between
  /// individual entry transfers so a stop request interrupts mid-migration.
  /// Returns the number of entries the neighbor accepted (0 when migration
  /// is off, not yet due, or cancelled immediately).
  std::size_t maybe_migrate(std::size_t island,
                            const std::function<bool()>& cancelled);

  /// Restarts every pool if the ring has merged (and restart_on_merge).
  /// Serialized internally; call from one island's housekeeping slot.
  bool check_restart();

  Energy best_energy() const { return ring_.global_best_energy(); }

  /// Records a global-best improvement for Table VI attribution.
  void note_improvement(double at_seconds, Energy energy, MainSearch algo,
                        GeneticOp op);

  RunStatsSnapshot stats() const { return stats_.snapshot(); }

  /// Diversity across the evaluated entries of *all* pools.
  PoolDiversity diversity() const;

  std::uint64_t migrations() const noexcept {
    return migrations_.load(std::memory_order_relaxed);
  }
  std::uint64_t restarts() const noexcept {
    return restarts_.load(std::memory_order_relaxed);
  }
  std::uint64_t generated() const noexcept {
    return generated_total_.load(std::memory_order_relaxed);
  }
  std::uint64_t accepted() const noexcept {
    return accepted_total_.load(std::memory_order_relaxed);
  }

  /// Pool-diversity, win-rate and attribution summary for
  /// SolveReport::extras (pool_min_hamming, pool_entropy, win_op_<Name>,
  /// first_finder_algo/op, improvements, ...) and the matching end-of-run
  /// dabs_evolve_* histogram observations.
  void fill_extras(std::map<std::string, std::string>& extras) const;

 private:
  EngineConfig cfg_;
  std::size_t bits_;
  IslandRing ring_;
  AdaptiveSelector selector_;
  RunStats stats_;

  std::mutex restart_mu_;  // guards restart_seeder_
  MersenneSeeder restart_seeder_;

  // Written only by island i's host thread; paces its migration.
  std::vector<std::uint64_t> generated_;
  std::vector<std::uint64_t> last_migration_;

  std::atomic<std::uint64_t> generated_total_{0};
  std::atomic<std::uint64_t> accepted_total_{0};
  std::atomic<std::uint64_t> migrations_{0};
  std::atomic<std::uint64_t> restarts_{0};
  std::array<std::atomic<std::uint64_t>, kGeneticOpCount> op_wins_{};
  std::array<std::atomic<std::uint64_t>, kMainSearchCount> algo_wins_{};
};

}  // namespace dabs
