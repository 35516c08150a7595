// Concurrency / failure-injection stress tests: queues under contention,
// pools under concurrent mixed access, solver restart behaviour, and
// shutdown edge cases.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/dabs_solver.hpp"
#include "device/packet_queue.hpp"
#include "evolve/genetic_ops.hpp"
#include "evolve/island_ring.hpp"
#include "evolve/solution_pool.hpp"
#include "test_helpers.hpp"

namespace dabs {
namespace {

using testing::random_model;
using testing::random_solution;
using testing::solve_on;

TEST(Stress, PacketQueueManyProducersManyConsumers) {
  PacketQueue q(8);
  constexpr int kProducers = 4, kConsumers = 4, kPerProducer = 200;
  std::atomic<int> consumed{0};
  std::atomic<long long> checksum{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      Rng rng(p + 1);
      for (int i = 0; i < kPerProducer; ++i) {
        Packet pkt;
        pkt.solution = random_bit_vector(64, rng);
        pkt.pool_index = static_cast<std::uint32_t>(p);
        pkt.energy = p * kPerProducer + i;
        ASSERT_TRUE(q.push(std::move(pkt)));
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (auto pkt = q.pop()) {
        checksum.fetch_add(pkt->energy);
        consumed.fetch_add(1);
      }
    });
  }
  // Join producers (the first kProducers threads), then close.
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  q.close();
  for (std::size_t t = kProducers; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
  long long expected = 0;
  for (int p = 0; p < kProducers; ++p) {
    for (int i = 0; i < kPerProducer; ++i) expected += p * kPerProducer + i;
  }
  EXPECT_EQ(checksum.load(), expected);
}

TEST(Stress, SolutionPoolConcurrentMixedAccess) {
  SolutionPool pool(50, 64);
  {
    Rng rng(1);
    pool.initialize_random(rng);
  }
  std::atomic<bool> stop{false};
  std::atomic<int> inserted{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < 3; ++w) {
    threads.emplace_back([&pool, &stop, &inserted, w] {
      Rng rng(100 + w);
      Energy e = -1;
      while (!stop.load()) {
        PoolEntry entry;
        entry.solution = random_bit_vector(64, rng);
        entry.energy = e - static_cast<Energy>(rng.next_index(1000));
        if (pool.insert(std::move(entry))) inserted.fetch_add(1);
      }
    });
  }
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&pool, &stop, r] {
      Rng rng(200 + r);
      while (!stop.load()) {
        (void)pool.select_cube_weighted(rng);
        (void)pool.select_uniform(rng);
        (void)pool.best_energy();
        (void)pool.worst_energy();
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  stop = true;
  for (auto& t : threads) t.join();

  EXPECT_GT(inserted.load(), 0);
  EXPECT_EQ(pool.size(), 50u);
  // The pool must still be sorted.
  Energy prev = pool.entry(0).energy;
  for (std::size_t i = 1; i < pool.size(); ++i) {
    const Energy e = pool.entry(i).energy;
    EXPECT_LE(prev, e);
    prev = e;
  }
}

TEST(Stress, ThreadedSolverRepeatedStartStop) {
  // Start/stop cycles must never deadlock or leak threads.
  const QuboModel m = random_model(24, 0.5, 9, 9000);
  for (int round = 0; round < 5; ++round) {
    SolverConfig c;
    c.devices = 2;
    c.device.blocks = 2;
    c.mode = ExecutionMode::kThreaded;
    c.stop.max_batches = 20;
    c.seed = 77 + round;
    const SolveReport r = solve_on(DabsSolver(c), m);
    EXPECT_GE(r.batches, 20u);
  }
}

TEST(Stress, RestartOnMergeFiresForSinglePointPools) {
  // Pool capacity 1 with two devices merges as soon as both pools hold the
  // same best solution — which a long run on a tiny model guarantees.
  const QuboModel m = random_model(8, 1.0, 3, 9001);
  SolverConfig c;
  c.devices = 2;
  c.device.blocks = 1;
  c.pool_capacity = 1;
  c.mode = ExecutionMode::kSynchronous;
  c.merge_check_interval = 4;
  c.stop.max_batches = 3000;
  c.seed = 5;
  const SolveReport r = solve_on(DabsSolver(c), m);
  EXPECT_GT(r.restarts, 0u) << "merged ring should have restarted";
}

TEST(Stress, RestartDisabledNeverRestarts) {
  const QuboModel m = random_model(8, 1.0, 3, 9002);
  SolverConfig c;
  c.devices = 2;
  c.device.blocks = 1;
  c.pool_capacity = 1;
  c.mode = ExecutionMode::kSynchronous;
  c.merge_check_interval = 4;
  c.restart_on_merge = false;
  c.stop.max_batches = 1000;
  const SolveReport r = solve_on(DabsSolver(c), m);
  EXPECT_EQ(r.restarts, 0u);
}

TEST(Stress, RestartPreservesGlobalBest) {
  // The global best must survive pool restarts (it lives outside pools).
  const QuboModel m = random_model(10, 1.0, 5, 9003);
  SolverConfig c;
  c.devices = 2;
  c.device.blocks = 1;
  c.pool_capacity = 1;
  c.mode = ExecutionMode::kSynchronous;
  c.merge_check_interval = 4;
  c.stop.max_batches = 3000;
  struct LastBest : ProgressObserver {
    Energy energy = kInfiniteEnergy;
    void on_new_best(const ProgressEvent& event) override {
      energy = event.best_energy;
    }
  } last;
  SolveRequest req;
  req.model = &m;
  req.observer = &last;
  const SolveReport r = DabsSolver(c).solve(req);
  EXPECT_EQ(m.energy(r.best_solution), r.best_energy);
  // The trace's final energy equals the result (no post-restart regression).
  EXPECT_EQ(last.energy, r.best_energy);
}

TEST(Stress, ZeroWeightModelIsHandled) {
  // Degenerate flat landscape: every vector has energy 0.
  const QuboModel m = QuboBuilder(16).build();
  SolverConfig c;
  c.devices = 1;
  c.device.blocks = 1;
  c.mode = ExecutionMode::kSynchronous;
  c.stop.max_batches = 30;
  const SolveReport r = solve_on(DabsSolver(c), m);
  EXPECT_EQ(r.best_energy, 0);
}

TEST(Stress, OneVariableModel) {
  QuboBuilder b(1);
  b.add_linear(0, -5);
  const QuboModel m = b.build();
  SolverConfig c;
  c.devices = 1;
  c.device.blocks = 1;
  c.mode = ExecutionMode::kSynchronous;
  c.stop.target_energy = -5;
  c.stop.max_batches = 50;
  const SolveReport r = solve_on(DabsSolver(c), m);
  EXPECT_TRUE(r.reached_target);
  EXPECT_TRUE(r.best_solution.get(0));
}

TEST(Stress, LargeSparseModelSmokeRun) {
  // QASP-scale sparse model through the full pipeline, bounded batches.
  const QuboModel m = random_model(2000, 0.004, 4, 9004);
  SolverConfig c;
  c.devices = 2;
  c.device.blocks = 2;
  c.mode = ExecutionMode::kSynchronous;
  c.stop.max_batches = 8;
  const SolveReport r = solve_on(DabsSolver(c), m);
  EXPECT_LE(r.best_energy, 0);
  EXPECT_EQ(m.energy(r.best_solution), r.best_energy);
}

}  // namespace
}  // namespace dabs
