#include "service/model_cache.hpp"

#include <algorithm>
#include <cstring>
#include <span>
#include <utility>

#include "obs/metrics.hpp"

namespace dabs::service {

namespace {

/// Process-wide cache metrics.  Counters aggregate across every ModelCache
/// instance; the resident gauges track whichever cache updated last (in
/// production there is one service-owned cache per process).
struct CacheMetrics {
  obs::Counter* hits = nullptr;
  obs::Counter* misses = nullptr;
  obs::Counter* evictions = nullptr;
  obs::Gauge* bytes = nullptr;
  obs::Gauge* entries = nullptr;
};

CacheMetrics& cache_metrics() {
  static CacheMetrics metrics = [] {
    auto& reg = obs::MetricsRegistry::global();
    CacheMetrics m;
    m.hits = &reg.counter("dabs_model_cache_hits_total",
                          "Model-cache lookups served from cache (key or "
                          "content hit).");
    m.misses = &reg.counter("dabs_model_cache_misses_total",
                            "Model-cache lookups that interned a new model.");
    m.evictions = &reg.counter("dabs_model_cache_evictions_total",
                               "Entries evicted to stay within the byte "
                               "budget.");
    m.bytes = &reg.gauge("dabs_model_cache_resident_bytes",
                         "Approximate bytes of resident cached models.");
    m.entries = &reg.gauge("dabs_model_cache_entries",
                           "Resident cached models.");
    return m;
  }();
  return metrics;
}

}  // namespace

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

inline void mix(std::uint64_t& h, std::uint64_t v) {
  // FNV-1a one 64-bit word at a time.
  h ^= v;
  h *= kFnvPrime;
}

/// A dense model's matrix as bytes, at its stored width.
std::span<const unsigned char> matrix_bytes(const QuboModel& m) {
  return m.with_dense_rows([&](const auto* w) {
    return std::span<const unsigned char>(
        reinterpret_cast<const unsigned char*>(w),
        m.size() * m.size() * sizeof(*w));
  });
}

}  // namespace

ModelCache::ModelCache(std::size_t max_bytes) : max_bytes_(max_bytes) {}

std::uint64_t ModelCache::content_hash(const QuboModel& model) {
  std::uint64_t h = kFnvOffset;
  const auto n = static_cast<VarIndex>(model.size());
  mix(h, n);
  mix(h, model.edge_count());
  mix(h, static_cast<std::uint64_t>(model.backend()));
  for (VarIndex i = 0; i < n; ++i) {
    mix(h, static_cast<std::uint64_t>(
               static_cast<std::int64_t>(model.diag(i))));
  }
  if (model.has_dense_rows()) {
    // The matrix's bytes, eight at a time; its width follows from its
    // content, so equal models hash equal.
    const std::span<const unsigned char> bytes = matrix_bytes(model);
    std::size_t k = 0;
    for (; k + 8 <= bytes.size(); k += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, bytes.data() + k, 8);
      mix(h, word);
    }
    for (; k < bytes.size(); ++k) mix(h, bytes[k]);
    return h;
  }
  for (VarIndex i = 0; i < n; ++i) {
    const auto [cols, vals] = model.csr_row(i);
    mix(h, cols.size());
    // One word per coupling: its column above its weight's 32 bits.
    for (std::size_t k = 0; k < cols.size(); ++k) {
      mix(h, std::uint64_t{cols[k]} << 32 |
                 static_cast<std::uint32_t>(vals[k]));
    }
  }
  return h;
}

bool ModelCache::same_content(const QuboModel& a, const QuboModel& b) {
  if (a.size() != b.size() || a.edge_count() != b.edge_count() ||
      a.backend() != b.backend() || a.row_width() != b.row_width()) {
    return false;
  }
  const auto n = static_cast<VarIndex>(a.size());
  for (VarIndex i = 0; i < n; ++i) {
    if (a.diag(i) != b.diag(i)) return false;
  }
  if (a.has_dense_rows()) {
    // Equal widths, so equal matrices are equal bytes.
    return std::ranges::equal(matrix_bytes(a), matrix_bytes(b));
  }
  for (VarIndex i = 0; i < n; ++i) {
    const auto [ca, va] = a.csr_row(i);
    const auto [cb, vb] = b.csr_row(i);
    if (!std::ranges::equal(ca, cb) || !std::ranges::equal(va, vb)) {
      return false;
    }
  }
  return true;
}

std::size_t ModelCache::approximate_bytes(const QuboModel& model) {
  return model.memory_bytes();
}

std::shared_ptr<const QuboModel> ModelCache::intern(QuboModel&& model,
                                                    bool* was_hit) {
  // Hash before locking: a K2000 hash must not stall every other lookup.
  const std::uint64_t hash = content_hash(model);
  std::lock_guard lock(mu_);
  return intern_locked(std::move(model), hash, was_hit, nullptr);
}

std::shared_ptr<const QuboModel> ModelCache::get_or_load(
    const std::string& key, const std::function<QuboModel()>& load,
    bool* was_hit) {
  {
    std::lock_guard lock(mu_);
    const auto it = by_key_.find(key);
    if (it != by_key_.end()) {
      touch_locked(it->second);
      ++stats_.hits;
      cache_metrics().hits->inc();
      if (was_hit) *was_hit = true;
      return it->second->model;
    }
  }
  // Parse and hash outside the lock; a racing loader of the same key
  // collapses to one stored copy at intern time (content hit for the loser).
  QuboModel model = load();
  const std::uint64_t hash = content_hash(model);
  std::lock_guard lock(mu_);
  return intern_locked(std::move(model), hash, was_hit, &key);
}

std::shared_ptr<const QuboModel> ModelCache::intern_locked(
    QuboModel&& model, std::uint64_t hash, bool* was_hit,
    const std::string* key) {
  if (const auto it = by_hash_.find(hash); it != by_hash_.end()) {
    for (Lru::iterator entry : it->second) {
      if (same_content(*entry->model, model)) {
        touch_locked(entry);
        if (key != nullptr && by_key_.emplace(*key, entry).second) {
          entry->keys.push_back(*key);
        }
        ++stats_.hits;
        cache_metrics().hits->inc();
        if (was_hit) *was_hit = true;
        return entry->model;
      }
    }
  }

  ++stats_.misses;
  cache_metrics().misses->inc();
  if (was_hit) *was_hit = false;
  auto shared = std::make_shared<const QuboModel>(std::move(model));
  const std::size_t bytes = approximate_bytes(*shared);
  if (bytes > max_bytes_) return shared;  // never cacheable; hand it back

  lru_.push_front(Entry{hash, bytes, shared, {}});
  const Lru::iterator entry = lru_.begin();
  by_hash_[hash].push_back(entry);
  if (key != nullptr && by_key_.emplace(*key, entry).second) {
    entry->keys.push_back(*key);
  }
  stats_.bytes += bytes;
  stats_.entries = lru_.size();
  evict_locked();
  cache_metrics().bytes->set(static_cast<std::int64_t>(stats_.bytes));
  cache_metrics().entries->set(static_cast<std::int64_t>(stats_.entries));
  return shared;
}

void ModelCache::touch_locked(Lru::iterator it) {
  if (it != lru_.begin()) lru_.splice(lru_.begin(), lru_, it);
}

void ModelCache::evict_locked() {
  // The newest entry (front) is never evicted: a model worth inserting is
  // worth keeping until something newer pushes it out.
  while (stats_.bytes > max_bytes_ && lru_.size() > 1) {
    drop_entry_locked(std::prev(lru_.end()));
    ++stats_.evictions;
    cache_metrics().evictions->inc();
  }
}

void ModelCache::drop_entry_locked(Lru::iterator it) {
  for (const std::string& key : it->keys) by_key_.erase(key);
  auto& bucket = by_hash_[it->hash];
  bucket.erase(std::find(bucket.begin(), bucket.end(), it));
  if (bucket.empty()) by_hash_.erase(it->hash);
  stats_.bytes -= it->bytes;
  lru_.erase(it);
  stats_.entries = lru_.size();
}

ModelCache::Stats ModelCache::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

void ModelCache::clear() {
  std::lock_guard lock(mu_);
  while (!lru_.empty()) drop_entry_locked(lru_.begin());
  cache_metrics().bytes->set(static_cast<std::int64_t>(stats_.bytes));
  cache_metrics().entries->set(static_cast<std::int64_t>(stats_.entries));
}

}  // namespace dabs::service
