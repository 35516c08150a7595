// Unit tests for the content-addressed, byte-bounded model cache.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "qubo/qubo_builder.hpp"
#include "service/model_cache.hpp"
#include "test_helpers.hpp"

namespace dabs {
namespace {

using service::ModelCache;

QuboModel small_model(std::uint64_t seed) {
  return testing::random_model(32, 0.3, 9, seed);
}

TEST(ModelCache, ContentHashAgreesWithEquality) {
  const QuboModel a = small_model(1);
  const QuboModel b = small_model(1);  // same build recipe -> same content
  const QuboModel c = small_model(2);
  EXPECT_TRUE(ModelCache::same_content(a, b));
  EXPECT_EQ(ModelCache::content_hash(a), ModelCache::content_hash(b));
  EXPECT_FALSE(ModelCache::same_content(a, c));
  EXPECT_NE(ModelCache::content_hash(a), ModelCache::content_hash(c));
}

TEST(ModelCache, BackendParticipatesInIdentity) {
  const QuboModel csr = testing::random_model(16, 0.9, 5, 3, QuboBackend::kCsr);
  const QuboModel dense =
      testing::random_model(16, 0.9, 5, 3, QuboBackend::kDense);
  EXPECT_FALSE(ModelCache::same_content(csr, dense));
  EXPECT_NE(ModelCache::content_hash(csr), ModelCache::content_hash(dense));
}

TEST(ModelCache, ApproximateBytesCoversArrays) {
  const QuboModel m = small_model(1);
  const std::size_t bytes = ModelCache::approximate_bytes(m);
  // At least the CSR payload: columns + values + diagonal.
  EXPECT_GE(bytes, 2 * m.edge_count() * (sizeof(VarIndex) + sizeof(Weight)) +
                       m.size() * sizeof(Weight));
}

TEST(ModelCache, ApproximateBytesChargesDenseRowsAtTheirWidth) {
  // The same dense structure stored at int8 and, scaled past the int16
  // range, at int32: the charge is the model's own footprint and differs
  // by exactly the n x n matrix width.
  const std::size_t n = 40;
  const QuboModel narrow =
      testing::random_model(n, 0.9, 5, 4, QuboBackend::kDense);
  const QuboModel wide =
      testing::random_model(n, 0.9, 5, 4, QuboBackend::kDense, 1 << 20);
  ASSERT_EQ(narrow.row_width(), RowWidth::kInt8);
  ASSERT_EQ(wide.row_width(), RowWidth::kInt32);
  EXPECT_EQ(ModelCache::approximate_bytes(narrow), narrow.memory_bytes());
  EXPECT_EQ(ModelCache::approximate_bytes(wide), wide.memory_bytes());
  EXPECT_EQ(ModelCache::approximate_bytes(wide) -
                ModelCache::approximate_bytes(narrow),
            n * n * (sizeof(Weight) - sizeof(std::int8_t)));
}

TEST(ModelCache, Int8RowsAreChargedHalfTheInt16Matrix) {
  // A +-1 model and its x128 copy: the same structure and Delta width,
  // rows stored at int8 and at int16.  A dense model keeps no CSR copy, so
  // over the object and its diagonal, the int8 model is charged exactly
  // half the int16 one: its n x n matrix.
  const std::size_t n = 64;
  const QuboModel int8_rows =
      testing::random_model(n, 0.9, 1, 5, QuboBackend::kDense);
  const QuboModel int16_rows =
      testing::random_model(n, 0.9, 1, 5, QuboBackend::kDense, 128);
  ASSERT_EQ(int8_rows.row_width(), RowWidth::kInt8);
  ASSERT_EQ(int16_rows.row_width(), RowWidth::kInt16);
  ASSERT_EQ(int16_rows.delta_width(), int8_rows.delta_width());
  const std::size_t base = sizeof(QuboModel) + n * sizeof(Weight);
  EXPECT_EQ(ModelCache::approximate_bytes(int8_rows) - base, n * n);
  EXPECT_EQ(ModelCache::approximate_bytes(int16_rows) - base,
            2 * (ModelCache::approximate_bytes(int8_rows) - base));
}

TEST(ModelCache, InternDedupesEqualContent) {
  ModelCache cache;
  bool hit = true;
  const auto first = cache.intern(small_model(1), &hit);
  EXPECT_FALSE(hit);
  const auto second = cache.intern(small_model(1), &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(first.get(), second.get());  // one shared instance

  const auto other = cache.intern(small_model(2), &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(first.get(), other.get());

  const ModelCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(ModelCache, GetOrLoadAliasesKeysAndSkipsLoader) {
  ModelCache cache;
  int loads = 0;
  const auto loader = [&loads] {
    ++loads;
    return small_model(1);
  };

  bool hit = true;
  const auto a = cache.get_or_load("path1", loader, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(loads, 1);

  // Repeat key: no parse at all.
  const auto b = cache.get_or_load("path1", loader, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(loads, 1);
  EXPECT_EQ(a.get(), b.get());

  // Different key, equal content: loader runs once more, storage shared.
  const auto c = cache.get_or_load("path2", loader, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(loads, 2);
  EXPECT_EQ(a.get(), c.get());
  EXPECT_EQ(cache.stats().entries, 1u);

  // The alias learned in the previous call also skips the loader now.
  (void)cache.get_or_load("path2", loader, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(loads, 2);
}

TEST(ModelCache, EvictsLeastRecentlyUsedByBytes) {
  const QuboModel probe = small_model(1);
  const std::size_t one = ModelCache::approximate_bytes(probe);
  // Room for roughly two entries of this size.
  ModelCache cache(2 * one + one / 2);

  bool hit = false;
  (void)cache.intern(small_model(1), &hit);
  (void)cache.intern(small_model(2), &hit);
  EXPECT_EQ(cache.stats().entries, 2u);

  // Touch model 1 so model 2 is the LRU victim when 3 arrives.
  (void)cache.intern(small_model(1), &hit);
  EXPECT_TRUE(hit);
  (void)cache.intern(small_model(3), &hit);
  EXPECT_FALSE(hit);
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().bytes, cache.max_bytes());

  (void)cache.intern(small_model(1), &hit);
  EXPECT_TRUE(hit);  // survived (recently used)
  (void)cache.intern(small_model(2), &hit);
  EXPECT_FALSE(hit);  // was evicted
}

TEST(ModelCache, EvictionDropsKeyAliases) {
  const std::size_t one = ModelCache::approximate_bytes(small_model(1));
  ModelCache cache(one + one / 2);  // one resident entry at a time
  int loads = 0;
  const auto load1 = [&loads] {
    ++loads;
    return small_model(1);
  };
  const auto load2 = [&loads] {
    ++loads;
    return small_model(2);
  };

  bool hit = false;
  (void)cache.get_or_load("p1", load1, &hit);
  (void)cache.get_or_load("p2", load2, &hit);  // evicts p1's entry
  EXPECT_EQ(cache.stats().entries, 1u);
  (void)cache.get_or_load("p1", load1, &hit);  // must reload, not dangle
  EXPECT_FALSE(hit);
  EXPECT_EQ(loads, 3);
}

TEST(ModelCache, OversizedModelIsReturnedUncached) {
  ModelCache cache(16);  // smaller than any real model
  bool hit = true;
  const auto m = cache.intern(small_model(1), &hit);
  EXPECT_FALSE(hit);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->size(), 32u);
  const ModelCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ModelCache, EvictionNeverDropsLiveReferences) {
  const std::size_t one = ModelCache::approximate_bytes(small_model(1));
  ModelCache cache(one + one / 2);
  const auto keep = cache.intern(small_model(1));
  (void)cache.intern(small_model(2));  // evicts entry 1 from the cache
  // The cache dropped its reference; ours still works.
  EXPECT_EQ(keep->size(), 32u);
  EXPECT_EQ(keep->energy(BitVector(32)), 0);
}

TEST(ModelCache, ClearEmptiesButKeepsCounters) {
  ModelCache cache;
  (void)cache.intern(small_model(1));
  (void)cache.intern(small_model(1));
  cache.clear();
  const ModelCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.hits, 1u);
  bool hit = true;
  (void)cache.intern(small_model(1), &hit);
  EXPECT_FALSE(hit);
}

TEST(ModelCache, ConcurrentInternsCollapseToOneEntry) {
  ModelCache cache;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  std::atomic<int> hits{0};
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &hits] {
      for (int i = 0; i < kPerThread; ++i) {
        bool hit = false;
        const auto m = cache.intern(small_model(7), &hit);
        ASSERT_NE(m, nullptr);
        if (hit) hits.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  const ModelCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kThreads * kPerThread - 1u);
  EXPECT_EQ(hits.load(), kThreads * kPerThread - 1);
}

TEST(ModelCache, KeyHitsRunWhileDenseModelsContentHit) {
  // Two threads load equal dense models under fresh keys: each load is a
  // content hit, hashed outside the cache lock and compared under it.
  // Meanwhile three threads key-hit the first key.  Every lookup returns
  // the one resident model.
  ModelCache cache;
  const auto dense = [] {
    return testing::random_model(300, 0.9, 5, 8, QuboBackend::kDense);
  };
  bool hit = true;
  const auto first = cache.get_or_load("k", dense, &hit);
  ASSERT_FALSE(hit);
  ASSERT_TRUE(first->has_dense_rows());
  std::atomic<bool> done{false};
  std::atomic<int> key_hits{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      while (!done.load()) {
        bool key_hit = false;
        const auto m = cache.get_or_load("k", dense, &key_hit);
        EXPECT_TRUE(key_hit);
        EXPECT_EQ(m.get(), first.get());
        key_hits.fetch_add(1);
      }
    });
  }
  constexpr int kLoads = 6;
  std::vector<std::thread> loaders;
  for (int t = 0; t < 2; ++t) {
    loaders.emplace_back([&, t] {
      for (int r = 0; r < kLoads; ++r) {
        bool content_hit = false;
        const auto m = cache.get_or_load(std::to_string(t * kLoads + r),
                                         dense, &content_hit);
        EXPECT_TRUE(content_hit);
        EXPECT_EQ(m.get(), first.get());
      }
    });
  }
  for (auto& t : loaders) t.join();
  done.store(true);
  for (auto& t : threads) t.join();
  const ModelCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u * kLoads + static_cast<unsigned>(key_hits.load()));
}

TEST(ModelCache, DenseContentHashAndEqualityReadTheMatrix) {
  // Equal dense models hash equal; one changed coupling (same edges, same
  // width) changes both the hash and the equality, and so do the same
  // terms at another width.
  const auto build = [](Weight w01, Weight scale) {
    QuboBuilder b(50);
    b.set_backend(QuboBackend::kDense);
    b.add_linear(3, 4 * scale);
    for (VarIndex i = 0; i < 50; ++i) {
      for (VarIndex j = i + 1; j < 50; ++j) {
        b.add_quadratic(i, j, ((i + j) % 3 == 0 ? 1 : -1) * scale);
      }
    }
    b.add_quadratic(0, 1, w01 * scale);
    return b.build();
  };
  const QuboModel a = build(2, 1), b = build(2, 1), c = build(3, 1);
  const QuboModel wide = build(2, 1000);
  ASSERT_EQ(a.row_width(), RowWidth::kInt8);
  ASSERT_EQ(c.edge_count(), a.edge_count());
  ASSERT_EQ(c.row_width(), a.row_width());
  ASSERT_EQ(wide.row_width(), RowWidth::kInt16);
  EXPECT_TRUE(ModelCache::same_content(a, b));
  EXPECT_EQ(ModelCache::content_hash(a), ModelCache::content_hash(b));
  EXPECT_FALSE(ModelCache::same_content(a, c));
  EXPECT_NE(ModelCache::content_hash(a), ModelCache::content_hash(c));
  EXPECT_FALSE(ModelCache::same_content(a, wide));
  EXPECT_NE(ModelCache::content_hash(a), ModelCache::content_hash(wide));
}

}  // namespace
}  // namespace dabs
