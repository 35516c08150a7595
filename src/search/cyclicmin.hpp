// CyclicMin search (paper §III-A-4): a window of growing width
//
//   w(t) = max( (t/T)^3 * n, c ),   c = 32 by default
//
// slides around the n bits arranged in a circle; each iteration flips the
// minimum-Delta bit inside the current window, then advances the window by
// its width.  Deterministic given the window position (no random numbers),
// with an annealing-like effect because late (wide) windows are more likely
// to contain the global minimum-Delta bit.
//
// The window position persists across run() calls, mirroring a CUDA block
// whose state survives from one batch search to the next.
#pragma once

#include <span>
#include <vector>

#include "search/search_algorithm.hpp"

namespace dabs {

class CyclicMinSearch final : public SearchAlgorithm {
 public:
  /// `min_window` is the constant c; clamped to n at run time.
  /// `bit_permuted` enables the bit-permuted variant of the authors'
  /// earlier ABS solver [16]: the cyclic order is a random permutation of
  /// the bit indices, refreshed at the start of every run(), which
  /// decorrelates the window contents from the model's index layout.
  explicit CyclicMinSearch(std::uint32_t min_window = 32,
                           bool bit_permuted = false)
      : min_window_(min_window), bit_permuted_(bit_permuted) {}

  void run(SearchState& state, Rng& rng, TabuList* tabu,
           std::uint64_t iterations) override;

  std::size_t window_position() const noexcept { return pos_; }
  bool bit_permuted() const noexcept { return bit_permuted_; }

 private:
  /// The iterations at one Delta width.
  template <class D>
  void run_at(SearchState& state, TabuList* tabu, std::uint64_t T,
              std::span<const D> delta);

  std::uint32_t min_window_;
  bool bit_permuted_;
  std::size_t pos_ = 0;
  std::vector<VarIndex> perm_;  // lazily sized to n when permuted
};

}  // namespace dabs
