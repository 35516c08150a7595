// Virtual device: the CPU stand-in for one GPU (see README "Substitutions").
//
// A real DABS device is a GPU on which many CUDA blocks independently run
// batch searches on packets received from the host.  The virtual device
// reproduces that architecture 1:1 in host code:
//
//   - `blocks` BlockExecutors, each owning a persistent BatchSearch
//     (solution state, tabu list, RNG stream) exactly like a resident CUDA
//     block owns its registers,
//   - a bounded inbox of host->device packets and an outbox of results,
//   - in threaded mode each block is a long-running consumer task on a
//     shared ThreadPool (the DeviceGroup sizes the pool so every block
//     gets a dedicated worker — the pool is the "SM array");
//   - in synchronous mode `process_next()` executes one packet inline on a
//     round-robin block, giving bit-reproducible runs for tests.
//
// With `replicas > 1` each block instead owns a BulkBatchSearch that runs up
// to `replicas` batch searches per kernel pass (the paper's bulk execution,
// where one SM interleaves many block-resident searches).  A bulk block
// gathers as many inbox packets as are immediately available (blocking for
// the first) and answers each with its own result packet, so the host-side
// protocol is unchanged.  Bulk blocks exist in threaded mode only.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "device/packet.hpp"
#include "device/packet_queue.hpp"
#include "qubo/qubo_model.hpp"
#include "rng/seeder.hpp"
#include "search/batch_search.hpp"
#include "search/bulk_batch_search.hpp"
#include "util/thread_pool.hpp"

namespace dabs {

struct DeviceConfig {
  std::uint32_t blocks = 4;        // CUDA-block-equivalents per device
  std::uint32_t replicas = 1;      // batch searches per block; > 1 runs the
                                   // bulk replica engine (threaded mode only)
  std::size_t queue_capacity = 8;  // inbox/outbox depth (back-pressure)
  BatchParams batch;               // s, b, tabu tenure
};

class VirtualDevice {
 public:
  /// Builds the device and seeds one RNG stream per block from `seeder`.
  VirtualDevice(const QuboModel& model, const DeviceConfig& config,
                MersenneSeeder& seeder);
  ~VirtualDevice();

  VirtualDevice(const VirtualDevice&) = delete;
  VirtualDevice& operator=(const VirtualDevice&) = delete;

  /// Submits one long-running consumer task per block to `pool`.  The
  /// caller must size the pool with at least block_count() free workers —
  /// a consumer occupies its worker until stop().  Idempotent.
  void start(ThreadPool& pool);

  /// Closes both queues and waits for every block task to retire.
  /// In-flight results are dropped: stop() is called only once the solver
  /// has terminated.  Safe even for tasks still queued in the pool — they
  /// observe the closed inbox and exit immediately.
  void stop();

  PacketQueue& inbox() noexcept { return inbox_; }
  PacketQueue& outbox() noexcept { return outbox_; }

  /// Synchronous mode: pops one inbox packet (non-blocking) and executes it
  /// on the next round-robin block.  Returns false when the inbox is empty.
  /// Scalar blocks only (replicas == 1).
  bool process_next();

  /// Executes `p` inline on block `block` and returns the result packet.
  /// Scalar blocks only (replicas == 1).  `cancel` ends the batch early
  /// (BatchSearch::run); the result is then for dropping only.
  Packet execute(const Packet& p, std::size_t block,
                 const std::atomic<bool>* cancel = nullptr);

  std::uint32_t block_count() const noexcept {
    return static_cast<std::uint32_t>(blocks_.empty() ? bulk_blocks_.size()
                                                      : blocks_.size());
  }
  std::uint32_t replicas_per_block() const noexcept { return replicas_; }
  std::uint64_t batches_executed() const noexcept {
    return batches_.load(std::memory_order_relaxed);
  }

 private:
  void block_loop(std::size_t block);
  void bulk_block_loop(std::size_t block);

  PacketQueue inbox_;
  PacketQueue outbox_;
  std::uint32_t replicas_ = 1;
  // Exactly one of the two block vectors is populated (replicas == 1 vs > 1).
  std::vector<std::unique_ptr<BatchSearch>> blocks_;
  std::vector<std::unique_ptr<BulkBatchSearch>> bulk_blocks_;
  std::size_t rr_next_ = 0;  // synchronous-mode round-robin cursor
  std::atomic<std::uint64_t> batches_{0};
  bool started_ = false;

  // Pool-task accounting: stop() blocks until every submitted consumer
  // task has retired (ran to queue closure or observed it before running).
  std::mutex pending_mu_;
  std::condition_variable pending_cv_;
  std::size_t pending_blocks_ = 0;
};

}  // namespace dabs
