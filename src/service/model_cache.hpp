// Content-addressed, byte-bounded cache of immutable QuboModel instances.
//
// The batch service runs many jobs over few distinct problem instances (the
// annealing-service access pattern: one hot model, thousands of requests).
// ModelCache dedupes them at two levels:
//
//   - intern(model): content-hashes the built model; N structurally equal
//     models collapse to one shared_ptr regardless of where they came from.
//   - get_or_load(key, loader): source-level aliases ("path#format") that
//     skip the parse entirely on repeat lookups, then fall through to
//     content interning so two distinct paths with equal content still
//     share storage.
//
// Bounded LRU by approximate resident bytes; eviction only drops the
// cache's reference — outstanding shared_ptrs keep their model alive, so a
// running job never loses its instance.  All operations are thread-safe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "qubo/qubo_model.hpp"

namespace dabs::service {

class ModelCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;       // key or content matches
    std::uint64_t misses = 0;     // models actually inserted (or oversized)
    std::uint64_t evictions = 0;  // entries dropped to respect max_bytes
    std::size_t entries = 0;      // resident models right now
    std::size_t bytes = 0;        // approximate resident bytes right now
  };

  /// Default budget: 66 dense K2000-class instances (a 4 MB int8 matrix
  /// each).
  static constexpr std::size_t kDefaultMaxBytes = std::size_t{256} << 20;

  explicit ModelCache(std::size_t max_bytes = kDefaultMaxBytes);

  ModelCache(const ModelCache&) = delete;
  ModelCache& operator=(const ModelCache&) = delete;

  /// Interns a built model: returns the cached instance when one with equal
  /// content exists (a hit), otherwise stores and returns `model` itself.
  /// `was_hit` (optional) reports which happened.  A model larger than the
  /// whole budget is returned uncached (counted as a miss).
  std::shared_ptr<const QuboModel> intern(QuboModel&& model,
                                          bool* was_hit = nullptr);

  /// Key-aliased lookup: returns the entry `key` maps to, or runs `load`
  /// and interns the result under `key`.  The loader runs outside the cache
  /// lock; concurrent loads of one key are possible and collapse at intern
  /// time.
  std::shared_ptr<const QuboModel> get_or_load(
      const std::string& key, const std::function<QuboModel()>& load,
      bool* was_hit = nullptr);

  Stats stats() const;
  std::size_t max_bytes() const noexcept { return max_bytes_; }

  /// Drops every cached entry and key alias (counters keep accumulating).
  void clear();

  /// FNV-1a, one 64-bit word at a time, over the model's content: size,
  /// edge count, backend, diagonal, and the dense matrix's bytes or every
  /// CSR row.  Computed outside the cache lock.  Two models with equal
  /// content always hash equal; the kernel backend participates because it
  /// changes runtime behavior even though results are bit-exact across
  /// backends.
  static std::uint64_t content_hash(const QuboModel& model);

  /// Structural equality on the same fields content_hash covers (a dense
  /// model's matrix compared at its stored width).
  static bool same_content(const QuboModel& a, const QuboModel& b);

  /// Approximate resident bytes of a built model (QuboModel::memory_bytes:
  /// diagonal + the CSR arrays or the dense matrix at its stored width) —
  /// the unit the LRU budget is measured in.
  static std::size_t approximate_bytes(const QuboModel& model);

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::size_t bytes = 0;
    std::shared_ptr<const QuboModel> model;
    std::vector<std::string> keys;  // aliases pointing at this entry
  };
  using Lru = std::list<Entry>;  // front = most recently used

  /// `hash` is content_hash(model), computed before taking mu_.
  std::shared_ptr<const QuboModel> intern_locked(QuboModel&& model,
                                                 std::uint64_t hash,
                                                 bool* was_hit,
                                                 const std::string* key);
  void touch_locked(Lru::iterator it);
  void evict_locked();
  void drop_entry_locked(Lru::iterator it);

  mutable std::mutex mu_;
  const std::size_t max_bytes_;
  Lru lru_;
  std::map<std::uint64_t, std::vector<Lru::iterator>> by_hash_;
  std::map<std::string, Lru::iterator> by_key_;
  Stats stats_;
};

}  // namespace dabs::service
