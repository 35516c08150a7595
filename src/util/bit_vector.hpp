// Packed bit vector used for QUBO solution vectors X = x0 x1 ... x{n-1}.
//
// Solution vectors are flipped millions of times per second by the search
// kernels, so the representation is a flat array of 64-bit words with
// branch-free get/set/flip and hardware popcount for Hamming distances.
#pragma once

#include <cstdint>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace dabs {

class BitVector {
 public:
  BitVector() = default;

  /// Constructs an all-zero vector of `n` bits.
  explicit BitVector(std::size_t n);

  /// Constructs from a string of '0'/'1' characters (bit i = s[i]).
  static BitVector from_string(const std::string& s);

  /// Number of bits.
  std::size_t size() const noexcept { return n_; }
  bool empty() const noexcept { return n_ == 0; }

  /// Value of bit i (no bounds check in release builds).
  bool get(std::size_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  bool operator[](std::size_t i) const noexcept { return get(i); }

  /// Sets bit i to `v`.
  void set(std::size_t i, bool v) noexcept {
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    if (v)
      words_[i >> 6] |= mask;
    else
      words_[i >> 6] &= ~mask;
  }

  /// Flips bit i and returns its new value.
  bool flip(std::size_t i) noexcept {
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    words_[i >> 6] ^= mask;
    return words_[i >> 6] & mask;
  }

  /// Sets every bit to zero / one.
  void clear() noexcept;
  void fill(bool v) noexcept;

  /// Number of one bits.
  std::size_t count() const noexcept;

  /// Hamming distance to another vector of the same length.
  std::size_t hamming_distance(const BitVector& other) const;

  /// Index of the first bit that differs from `other`, or size() if equal.
  std::size_t first_difference(const BitVector& other) const;

  /// Readable "010110..." form (bit 0 first).
  std::string to_string() const;

  /// Raw word access (word w holds bits [64w, 64w+63], LSB-first).  The
  /// bits past size() in the last word are always zero, so word-wise
  /// compares, xors and popcounts are exact; writers through the mutable
  /// overload must keep them zero.
  const std::uint64_t* words() const noexcept { return words_.data(); }
  std::uint64_t* words() noexcept { return words_.data(); }
  std::size_t word_count() const noexcept { return words_.size(); }

  /// Stable 64-bit content hash (for dedup in solution pools).
  std::uint64_t hash() const noexcept;

  friend bool operator==(const BitVector& a, const BitVector& b) noexcept {
    return a.n_ == b.n_ && a.words_ == b.words_;
  }
  friend bool operator!=(const BitVector& a, const BitVector& b) noexcept {
    return !(a == b);
  }

 private:
  /// Zeroes the unused high bits of the last word so == and count() are exact.
  void mask_tail() noexcept;

  std::size_t n_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace dabs

template <>
struct std::hash<dabs::BitVector> {
  std::size_t operator()(const dabs::BitVector& v) const noexcept {
    return static_cast<std::size_t>(v.hash());
  }
};
