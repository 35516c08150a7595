#include "device/virtual_device.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace dabs {

VirtualDevice::VirtualDevice(const QuboModel& model,
                             const DeviceConfig& config,
                             MersenneSeeder& seeder)
    // A bulk block can retire `replicas` packets per pass, so the queues
    // must hold at least that many for the gather to ever fill a pass.
    : inbox_(std::max<std::size_t>(config.queue_capacity, config.replicas)),
      outbox_(std::max<std::size_t>(config.queue_capacity, config.replicas)),
      replicas_(config.replicas) {
  DABS_CHECK(config.blocks > 0, "device needs at least one block");
  DABS_CHECK(config.replicas > 0, "device needs at least one replica");
  if (config.replicas > 1) {
    bulk_blocks_.reserve(config.blocks);
    for (std::uint32_t b = 0; b < config.blocks; ++b) {
      bulk_blocks_.push_back(std::make_unique<BulkBatchSearch>(
          model, config.batch, config.replicas, seeder.next_seed()));
    }
  } else {
    blocks_.reserve(config.blocks);
    for (std::uint32_t b = 0; b < config.blocks; ++b) {
      blocks_.push_back(std::make_unique<BatchSearch>(model, config.batch,
                                                      seeder.next_seed()));
    }
  }
}

VirtualDevice::~VirtualDevice() { stop(); }

void VirtualDevice::start(ThreadPool& pool) {
  if (started_) return;
  started_ = true;
  const std::size_t count = block_count();
  {
    std::lock_guard lock(pending_mu_);
    pending_blocks_ = count;
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(count);
  for (std::size_t b = 0; b < count; ++b) {
    tasks.push_back([this, b] {
      block_loop(b);
      std::lock_guard lock(pending_mu_);
      --pending_blocks_;
      pending_cv_.notify_all();
    });
  }
  pool.submit_batch(std::move(tasks));
}

void VirtualDevice::stop() {
  // Close both queues before waiting: a block mid-push into a full outbox
  // must be released (its push fails harmlessly) or the wait would
  // deadlock.  A task still queued in the pool sees the closed inbox and
  // retires immediately.
  inbox_.close();
  outbox_.close();
  if (!started_) return;
  std::unique_lock lock(pending_mu_);
  pending_cv_.wait(lock, [this] { return pending_blocks_ == 0; });
  started_ = false;
}

Packet VirtualDevice::execute(const Packet& p, std::size_t block,
                              const std::atomic<bool>* cancel) {
  DABS_CHECK(bulk_blocks_.empty(),
             "execute() requires scalar blocks (replicas == 1)");
  DABS_CHECK(block < blocks_.size(), "block index out of range");
  const BatchResult r = blocks_[block]->run(p.solution, p.algo, cancel);
  batches_.fetch_add(1, std::memory_order_relaxed);
  Packet out = p;
  out.solution = r.best;
  out.energy = r.best_energy;
  out.flips = r.flips;
  return out;
}

bool VirtualDevice::process_next() {
  DABS_CHECK(bulk_blocks_.empty(),
             "process_next() requires scalar blocks (replicas == 1)");
  auto p = inbox_.try_pop();
  if (!p) return false;
  const std::size_t block = rr_next_;
  rr_next_ = (rr_next_ + 1) % blocks_.size();
  // Synchronous mode uses try_push-then-push so a full outbox is an error
  // surfaced to the caller rather than a silent deadlock.
  const Packet out = execute(*p, block);
  DABS_CHECK(outbox_.try_push(out),
             "synchronous outbox full: drain results before process_next");
  return true;
}

void VirtualDevice::block_loop(std::size_t block) {
  if (!bulk_blocks_.empty()) {
    bulk_block_loop(block);
    return;
  }
  for (;;) {
    auto p = inbox_.pop();
    if (!p) return;  // inbox closed and drained
    outbox_.push(execute(*p, block));
  }
}

void VirtualDevice::bulk_block_loop(std::size_t block) {
  BulkBatchSearch& bulk = *bulk_blocks_[block];
  const std::size_t replicas = bulk.replica_count();
  std::vector<Packet> sources;
  std::vector<BitVector> targets;
  for (;;) {
    sources.clear();
    targets.clear();
    // Block for one packet, then gather whatever else is immediately
    // available (up to the replica count) into the same bulk pass.
    auto p = inbox_.pop();
    if (!p) return;  // inbox closed and drained
    sources.push_back(std::move(*p));
    while (sources.size() < replicas) {
      Packet extra;
      if (inbox_.try_pop(extra) != PacketQueue::PopStatus::kItem) break;
      sources.push_back(std::move(extra));
    }
    targets.reserve(sources.size());
    for (const Packet& s : sources) targets.push_back(s.solution);
    std::vector<BatchResult> results = bulk.run(targets);
    batches_.fetch_add(results.size(), std::memory_order_relaxed);
    for (std::size_t i = 0; i < results.size(); ++i) {
      Packet out = sources[i];
      out.solution = std::move(results[i].best);
      out.energy = results[i].best_energy;
      out.flips = results[i].flips;
      if (!outbox_.push(std::move(out))) return;  // closed mid-shutdown
    }
  }
}

}  // namespace dabs
