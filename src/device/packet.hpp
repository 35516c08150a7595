// Host <-> device packet (paper §III-C, Table I).
//
// Host -> device: `solution` is the target vector, `energy` is void (the
// host never computes energies), `algo` selects the main search to run,
// `op` records which genetic operation generated the target.
//
// Device -> host: `solution`/`energy` are overwritten with the batch
// search's best result and `flips` with the flips it spent; `algo`/`op`
// pass through untouched so the host can attribute the result when
// inserting it into a solution pool.
#pragma once

#include <cstdint>

#include "evolve/op_ids.hpp"
#include "qubo/types.hpp"
#include "search/registry.hpp"
#include "util/bit_vector.hpp"

namespace dabs {

struct Packet {
  BitVector solution;
  Energy energy = kInfiniteEnergy;  // kInfiniteEnergy == "void"
  MainSearch algo = MainSearch::kMaxMin;
  GeneticOp op = GeneticOp::kRandom;
  /// Pool that generated this packet; results return to the same pool.
  std::uint32_t pool_index = 0;
  /// Flips the batch search spent on this packet (0 on the way in).
  std::uint64_t flips = 0;

  bool has_energy() const noexcept { return energy != kInfiniteEnergy; }
};

/// One-line rendering like the rows of the paper's Table I.
std::string describe(const Packet& p, std::size_t max_bits = 32);

}  // namespace dabs
